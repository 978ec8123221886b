// Package dlock implements Munin's distributed synchronization substrate
// (paper §3.3.8): distributed locks built from per-node lock servers and
// local proxy objects, plus barriers, atomic integers, condition
// variables and Mesa-style monitors layered on top.
//
// # Protocol
//
// Every lock has a home node (HomeOf(id)). The home holds the lock's
// global state: whether it is owned, its tail — the node it last
// promised the lock to — and, for each node it forwarded a waiter to,
// that waiter's request. Each node runs a Service holding one proxy per
// lock it has touched. Threads always operate on the local proxy:
//
//   - If the node already owns the lock and no local thread holds it,
//     acquisition is purely local — zero messages. This is the proxy
//     benefit the paper describes.
//   - Otherwise the first local waiter issues an ACQUIRE call to the
//     home; the reply *is* the ownership grant (the caller stays
//     suspended in the V-kernel Call until granted).
//   - The home grants an unowned lock itself, with the migratory data
//     parked there. An owned lock is not the home's to give: the home
//     forwards the ACQUIRE to the tail (kindPass) and makes the caller
//     the new tail. The tail's proxy answers the forwarded request with
//     the grant, straight to the waiter, as soon as it owns the lock and
//     no local thread holds it. A transfer is request, forward and
//     grant, and the data crosses the wire once: the object "is
//     migrated, together with the lock itself, to the next thread in the
//     lock queue" (§3.3.3).
//   - A node with a parked forward may enter the critical section once
//     more (the forward can arrive before the grant it queues behind);
//     its next release passes the lock on. Remote waiters are served in
//     the order the home forwarded them.
//   - The queue is a chain. A proxy parks at most one forward: the home
//     forwards to a node only while it is the tail, and a node becomes
//     the tail again only by asking again, which it does only after it
//     has passed the lock on. That ACQUIRE retires the home's entry for
//     the node, so the home's state is bounded by the node count.
//   - A node gives a lock back to its home (RELEASE, a Call the home
//     acknowledges, so nothing the node sends later overtakes it) in
//     four cases: at every release in naive mode, when it leaves the
//     computation (Leave), when its grant to a forwarded waiter could
//     not be sent, and at the release after the home withdrew a crashed
//     waiter forwarded to it (PeerRecovered). The home grants the waiter it forwarded to that
//     node itself, with the data, or parks the data when there is none.
//     A naive proxy serves no forward: one that crossed its release is
//     counted as dropped (dlock.drop_forward), and the home grants the
//     waiter.
//
// # Migratory data
//
// Grants and releases carry an opaque data payload. The migratory
// coherence protocol (paper §3.3.3) registers a provider/applier pair on
// the proxy, so the migratory objects guarded by a lock travel inside
// the lock-transfer messages themselves.
package dlock

import (
	"fmt"
	"slices"
	"sync"

	"munin/internal/bufpool"
	"munin/internal/cluster"
	"munin/internal/failpoint"
	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/vkernel"
)

// LockID identifies a distributed lock.
type LockID uint32

// BarrierID identifies a distributed barrier.
type BarrierID uint32

// AtomicID identifies a distributed atomic integer.
type AtomicID uint32

// CondID identifies a distributed condition variable.
type CondID uint32

// Message kinds used by the lock service: one contiguous block of Call
// kinds, then a sentinel one past the end. The dispatch table is keyed
// by kind minus the first kind, so a kind given two handlers does not
// compile, and a kind given none panics in NewService.
const (
	kindAcquire  = msg.KindLockBase + iota // Call: request ownership; reply = grant(+data)
	kindBarrier                            // Call: arrive at barrier; reply = release
	kindCarrier                            // Call: a carrier's arrival at a barrier; reply = release
	kindFetchAdd                           // Call: atomic fetch-and-add
	kindAtomLoad                           // Call: atomic load
	kindCondWait                           // Call: block until signaled (pre-registered)
	kindCondReg                            // Call: register waiter, returns ticket
	kindCondSig                            // Call: signal/broadcast
	kindRelease                            // Call: hand ownership back to the home (+data); reply = ack
	kindPass                               // Call: a waiter's ACQUIRE the home forwards to the tail; reply, to the waiter = grant(+data)
	kindRevoke                             // Call: the home asks after a crashed waiter's grant; reply = whether it went out
	kindLockEnd                            // sentinel
)

var lockCalls = [kindLockEnd - kindAcquire]func(*Service, *msg.Msg) vkernel.Outcome{
	kindAcquire - kindAcquire:  (*Service).handleAcquire,
	kindBarrier - kindAcquire:  (*Service).handleBarrier,
	kindCarrier - kindAcquire:  (*Service).handleCarrier,
	kindFetchAdd - kindAcquire: (*Service).handleFetchAdd,
	kindAtomLoad - kindAcquire: (*Service).handleAtomLoad,
	kindCondWait - kindAcquire: (*Service).handleCondWait,
	kindCondReg - kindAcquire:  (*Service).handleCondReg,
	kindCondSig - kindAcquire:  (*Service).handleCondSig,
	kindRelease - kindAcquire:  (*Service).handleRelease,
	kindPass - kindAcquire:     (*Service).handlePass,
	kindRevoke - kindAcquire:   (*Service).handleRevoke,
}

// Service is one node's lock server plus its proxy table.
type Service struct {
	k     *vkernel.Kernel
	nodes int

	mu      lockrank.Mutex[lockrank.LockService]
	proxies map[LockID]*proxy
	homes   map[LockID]*homeState // state for locks homed on this node

	barriers map[BarrierID]*barrierState
	atomics  map[AtomicID]*atomicState
	conds    map[CondID]*condState

	// The coherence layer's barrier hooks (AttachBarrier), under mu.
	barrierCheck func(Arrival) bool
	barrierMerge func([]Arrival) (Releases, error)

	// naive disables proxy ownership caching: every release hands the
	// lock back to the home. Used by the E8 experiment as the baseline.
	naive bool

	ctr stats.Dlock // bound into the kernel's Set

	// LocalAcquires counts acquisitions satisfied with zero messages.
	localAcquires int64
	// RemoteAcquires counts acquisitions that needed a home round trip.
	remoteAcquires int64
}

// proxy is the local representative of one distributed lock.
type proxy struct {
	mu   lockrank.Mutex[lockrank.LockProxy]
	cond *sync.Cond

	owner      bool // this node holds global ownership
	held       bool // a local thread holds the lock
	requesting bool // an ACQUIRE call is in flight
	// passing holds local acquirers off while the lock leaves this node:
	// the migratory data is taken and the grant or the hand-back sent
	// outside mu.
	passing bool
	// next is the waiter's ACQUIRE the home forwarded here, parked until
	// the lock is free: the next release grants it the lock.
	next *msg.Msg
	// passed is the forward this proxy last granted, and revoked one
	// the home withdrew before it arrived (handleRevoke).
	passed, revoked reqKey
	// giveBack hands the lock back to the home at the next release
	// instead of keeping it: the home withdrew the waiter forwarded here,
	// which had crashed, and grants the lock to whoever follows it.
	giveBack bool

	// Migratory data hooks (nil when no data is attached to the lock).
	provide func(emit func([]byte))
	apply   func([]byte)
}

// homeState is the global state of a lock homed on this node.
type homeState struct {
	mu    lockrank.Mutex[lockrank.LockHome]
	owned bool
	// tail is the node the lock was last promised to, while owned.
	tail msg.NodeID
	// fwd holds one entry per node that owes a forwarded waiter the
	// lock: at most one per node.
	fwd    []forwarded
	stored []byte // migratory data parked at home while unowned
}

// reqKey names a request: its caller and the caller's sequence number.
type reqKey struct {
	from msg.NodeID
	seq  uint64
}

func keyOf(m *msg.Msg) reqKey { return reqKey{m.From, m.Seq} }

// forwarded is a waiter whose ACQUIRE the home forwarded to node at,
// which owes it the lock. req is the waiter's request, kept so that the
// home can grant it itself if the lock comes back instead; it is nil
// once the waiter is lost, and the lock then goes on to whoever the home
// forwarded to the waiter.
type forwarded struct {
	at, waiter msg.NodeID
	req        *msg.Msg
}

// take removes and returns the entry of the waiter node n owes the lock.
func (h *homeState) take(n msg.NodeID) (forwarded, bool) {
	for i, f := range h.fwd {
		if f.at == n {
			h.fwd = slices.Delete(h.fwd, i, i+1)
			return f, true
		}
	}
	return forwarded{}, false
}

// lost releases a lock whose holder is gone, and its bytes with it.
// Caller holds h.mu.
func (h *homeState) lost() { h.owned, h.stored = false, nil }

type barrierState struct {
	mu lockrank.Mutex[lockrank.BarrierHome]
	// n is the open epoch's participant count, 0 while none is open.
	n       int
	arrived []arrival
}

// arrival is one participant parked at a barrier's home: a remote one's
// request, which its release replies to, or a local one's waiter, to
// which its release hands the error the home met publishing the updates.
type arrival struct {
	Arrival
	req  *msg.Msg   // a remote participant's arrival, nil for a local one
	wake chan error // a local participant's hand-off, nil for a remote one
}

type atomicState struct {
	mu lockrank.Mutex[lockrank.AtomicHome]
	v  int64
}

type condState struct {
	mu      lockrank.Mutex[lockrank.CondHome]
	nextTkt uint64
	// waiters maps ticket -> pending CondWait request (nil until the
	// waiter blocks) ; signaled tickets are removed when both the
	// signal and the block have arrived.
	waiters  map[uint64]*msg.Msg
	signaled map[uint64]bool
}

// NewService creates node-local lock service state and registers its
// message handlers on k. One Service must be created per node before any
// lock traffic flows.
func NewService(k *vkernel.Kernel) *Service {
	s := &Service{
		k:        k,
		nodes:    k.Nodes(),
		proxies:  make(map[LockID]*proxy),
		homes:    make(map[LockID]*homeState),
		barriers: make(map[BarrierID]*barrierState),
		atomics:  make(map[AtomicID]*atomicState),
		conds:    make(map[CondID]*condState),
	}
	k.C.Bind(&s.ctr)
	vkernel.HandleCalls(k, kindAcquire, s, lockCalls[:])
	return s
}

// SetNaive disables local ownership caching (the proxy optimization).
// With naive=true every acquire/release pair costs a home round trip,
// which is the baseline the paper's proxy design improves on.
func (s *Service) SetNaive(naive bool) {
	s.mu.Lock()
	s.naive = naive
	s.mu.Unlock()
}

// LocalAcquires returns the number of lock acquisitions this node
// satisfied without any network traffic.
func (s *Service) LocalAcquires() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localAcquires
}

// RemoteAcquires returns the number of lock acquisitions that required a
// home round trip.
func (s *Service) RemoteAcquires() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remoteAcquires
}

func (s *Service) home(id LockID) msg.NodeID {
	return cluster.HomeOf(uint64(id), s.nodes)
}

func (s *Service) proxy(id LockID) *proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.proxies[id]
	if !ok {
		p = &proxy{}
		p.cond = sync.NewCond(&p.mu)
		s.proxies[id] = p
	}
	return p
}

func (s *Service) homeState(id LockID) *homeState {
	if s.home(id) != s.k.Node() {
		panic(fmt.Sprintf("dlock: node %d is not home of lock %d", s.k.Node(), id))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.homes[id]
	if !ok {
		h = &homeState{}
		s.homes[id] = h
	}
	return h
}

// AttachMigratory registers the migratory-data hooks for a lock on this
// node. provide is called when ownership leaves this node and must call
// emit exactly once with the bytes that ride in the release message; emit
// encodes them straight into the wire buffer, so provide can pass its
// live copy under its own lock instead of a snapshot, and the bytes need
// only stay valid until emit returns. apply is called with the bytes that
// arrived in an ownership grant, valid for the duration of the call.
func (s *Service) AttachMigratory(id LockID, provide func(emit func([]byte)), apply func([]byte)) {
	p := s.proxy(id)
	p.mu.Lock()
	p.provide = provide
	p.apply = apply
	p.mu.Unlock()
}

// SeedMigratory parks initial migratory data for lock id at its home so
// the first grant anywhere delivers it. Every node installs a migratory
// object with the same bytes and seeds it, so only the home's call
// stores: no node ever writes another's stored bytes.
func (s *Service) SeedMigratory(id LockID, data []byte) {
	if s.home(id) != s.k.Node() {
		return
	}
	h := s.homeState(id)
	h.mu.Lock()
	h.stored = append([]byte(nil), data...)
	h.mu.Unlock()
}

// Acquire blocks the calling thread until it holds lock id.
func (s *Service) Acquire(id LockID) {
	lockrank.Blocking()
	p := s.proxy(id)
	wasRemote := false
	p.mu.Lock()
	for {
		if p.owner && !p.held {
			// Local (zero-message) acquisition. A parked forward does
			// not block it: the node may enter the critical section once
			// more, and Release then passes the lock on. (Passing it here
			// instead would send a fresh grant away before the granted
			// thread ever ran, since a waiter can be forwarded here before
			// this node's own grant arrives.)
			p.held = true
			p.mu.Unlock()
			s.mu.Lock()
			if wasRemote {
				s.remoteAcquires++
			} else {
				s.localAcquires++
			}
			s.mu.Unlock()
			// The lock is held: the member is inside the critical
			// section.
			failpoint.Hit(failpoint.LockHeld)
			return
		}
		if p.owner && p.held {
			p.cond.Wait()
			continue
		}
		// Not owner.
		if !p.requesting && !p.passing {
			p.requesting = true
			apply := p.apply
			p.mu.Unlock()

			// The grant comes from the home, or from the node the home
			// forwarded this request to.
			reply, err := s.k.Call(s.home(id), kindAcquire, encodeLockPayload(uint32(id), nil))
			var data []byte
			if err == nil {
				_, data, err = decodeLockPayload(reply.Payload)
			}
			if err != nil {
				p.mu.Lock()
				p.requesting = false
				p.cond.Broadcast()
				p.mu.Unlock()
				panic(fmt.Sprintf("dlock: acquire lock %d: %v", id, err))
			}
			// The grant has arrived but ownership is not yet recorded: a
			// member dying here leaves the home believing it owns the
			// lock.
			failpoint.Hit(failpoint.LockGranted)

			// The data goes in before ownership is recorded: no local
			// thread can enter the critical section until it is, and
			// apply takes the object's lock, which ranks below p.mu.
			if apply != nil && data != nil {
				apply(data)
			}
			p.mu.Lock()
			p.owner = true
			p.requesting = false
			wasRemote = true
			p.cond.Broadcast()
			continue // loop: grab it (we might race another local thread)
		}
		p.cond.Wait()
	}
}

// Release releases lock id, previously acquired by this thread's node.
// With a forwarded waiter parked it passes the lock on; in naive mode,
// or when the home withdrew a crashed waiter (giveBack), it hands the
// lock back to the home.
func (s *Service) Release(id LockID) {
	lockrank.Blocking()
	p := s.proxy(id)
	p.mu.Lock()
	if !p.held || !p.owner {
		p.mu.Unlock()
		panic(fmt.Sprintf("dlock: release of lock %d not held by node %d", id, s.k.Node()))
	}
	p.held = false
	s.mu.Lock()
	naive := s.naive
	s.mu.Unlock()
	var err error
	switch {
	case naive || p.giveBack:
		err = s.handBack(id, p)
	case p.next != nil:
		err = s.pass(id, p)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("dlock: release lock %d: %v", id, err))
	}
}

// pass grants the lock to the waiter parked in p.next, straight from
// this node, with the migratory data. Caller holds p.mu; the proxy owns
// the lock, free. The data is taken and the grant sent with p.mu
// released, because provide takes the object's lock, which ranks below
// p.mu; passing keeps local acquirers from asking for the lock again
// before the grant is on its way. A grant that cannot be sent — the
// waiter's wire died or it left — is counted (dlock.grant_failed), and
// the lock goes back to the home, which grants the waiter itself or
// passes the lock on past it; the error is the hand-back's. Returns with
// p.mu held.
func (s *Service) pass(id LockID, p *proxy) error {
	next := p.next
	p.next, p.owner, p.passing = nil, false, true
	p.passed = keyOf(next)
	provide := p.provide
	p.mu.Unlock()
	err := s.k.ReplyOwned(next, lockData(id, provide))
	p.mu.Lock()
	if err != nil {
		s.ctr.GrantFailed.Inc()
		p.passed = reqKey{}
		p.owner = true
		err = s.handBack(id, p)
	}
	p.passing = false
	return err
}

// handBack gives the lock back to its home with the migratory data and
// waits for the home's ack, so that this node's next ACQUIRE cannot
// overtake it. The home grants the waiter it forwarded here, if any, so
// a parked forward is dropped. Caller holds p.mu and the proxy owns the
// lock; returns with p.mu held, like pass.
func (s *Service) handBack(id LockID, p *proxy) error {
	p.next, p.owner, p.passing, p.giveBack = nil, false, true, false
	provide := p.provide
	p.mu.Unlock()
	pend, err := s.k.CallStartOwned(s.home(id), kindRelease, lockData(id, provide))
	if err == nil {
		_, err = pend.Wait()
	}
	p.mu.Lock()
	p.passing = false
	return err
}

// lockData builds a grant or a hand-back of lock id: the migratory data
// provide emits, or none.
func lockData(id LockID, provide func(emit func([]byte))) *bufpool.Buffer {
	if provide == nil {
		return lockWire(uint32(id), nil)
	}
	var wb *bufpool.Buffer
	provide(func(data []byte) { wb = lockWire(uint32(id), data) })
	return wb
}

// Leave hands every lock this node owns, held or not, back to its home,
// migratory data included. The runtime calls it before a clean
// departure (its goodbye), so a waiter forwarded here is granted by the
// home from the bytes the lock carried last, and the home never has to
// guess at the departure whether the lock was passed on (PeerGone). A
// lock homed on this node is skipped: its home state leaves with the
// node. A lock whose home cannot be reached stays with this node
// (dlock.handback_failed), and that home's PeerGone releases it.
//
// Leave then fences this node's sends: a grant passed on just before
// may wait behind the first dial to its waiter, and a pair still
// dialing when the goodbye goes out is torn down with what it queued.
// The error is the fence's.
func (s *Service) Leave() error {
	s.mu.Lock()
	owned := make(map[LockID]*proxy, len(s.proxies))
	for id, p := range s.proxies {
		if s.home(id) != s.k.Node() {
			owned[id] = p
		}
	}
	s.mu.Unlock()
	for id, p := range owned {
		p.mu.Lock()
		if p.owner {
			if err := s.handBack(id, p); err != nil {
				s.ctr.HandBackFailed.Inc()
			}
		}
		p.mu.Unlock()
	}
	return s.k.Flush()
}

// PeerGone prunes a cleanly departed member from this node's home-side
// lock state. A member departing through the runtime has handed every
// lock it owned back first (Leave), so what is left is:
//
//   - a request of the peer's that the home forwarded to another node:
//     the entry is marked lost (dlock.gone_dequeued). The peer left
//     waiting: that node's grant to it fails and the lock comes back to
//     the home, which passes it on past the peer to the waiter forwarded
//     to it, so that entry is kept;
//   - otherwise, a waiter the home forwarded to the peer: the peer passed
//     the lock on before it left, and the grant may still be on its way
//     on another wire, so the home sends nothing (it re-grants only from
//     bytes it holds, and a dataless grant could overtake the real one);
//   - otherwise, a lock the peer is the tail of: it never handed it
//     back, so it is released, its migratory payload lost with it, and
//     parked at home unowned (dlock.gone_owner). Clean departure while
//     holding a lock is a program error; this keeps the failure local to
//     that lock.
//
// The runtime calls this when the transport reports a goodbye
// (transport.PeerGoneNotifier), strictly after everything the peer sent
// has been dispatched. Barrier arrivals are left untouched: an arrival
// that already counted keeps counting (the release reply to the
// departed member fails once, harmlessly).
func (s *Service) PeerGone(peer msg.NodeID) {
	dequeued, released := s.resetPeer(peer, false)
	s.ctr.GoneDequeued.Add(dequeued)
	s.ctr.GoneOwner.Add(released)
}

// PeerRecovered rebuilds this home's lock state for a peer whose
// restarted incarnation is rejoining (protocol recovery). The dead
// incarnation's requests forwarded to other nodes are marked lost, as
// in PeerGone. Its bytes died with it, and its last frames were
// delivered long before its successor rejoined. Only the node the home
// last forwarded its request to knows whether the lock reached it, so
// the home asks that node (ask): if the grant went out, or the home
// never forwarded the peer, the lock died with the peer, and the home
// grants a waiter the peer owed the lock itself, without data, or
// releases a lock the peer was the tail of. If not, the peer drops out
// of the queue, and the asked node hands the lock back to the home at
// its next release. The fresh
// incarnation re-enters by ordinary acquires. Barrier arrivals the dead
// incarnation parked here are dropped (PeerDown).
//
// Counters: dlock.recover_dequeued, dlock.recover_owner,
// dlock.barrier_purged.
func (s *Service) PeerRecovered(peer msg.NodeID) {
	s.PeerDown(peer)
	dequeued, released := s.resetPeer(peer, true)
	s.ctr.RecoverDequeued.Add(dequeued)
	s.ctr.RecoverOwner.Add(released)
}

// PeerDown drops the barrier arrivals a peer whose wire died has parked
// at this node: the peer's pending calls failed with its connection, so
// no release can reach the caller that sent them, and counting one
// could complete a barrier without it — the others would pass while
// the peer, or its recovered incarnation, waits at a barrier nobody
// else will reach. The runtime calls it when the transport latches the
// peer down and a reconnect policy lets it come back (a terminal
// outage leaves the arrivals counted, so the barrier still completes
// and the survivors fail at the run's exit gate); PeerRecovered purges
// again, for an arrival whose handler was still running when the wire
// died.
//
// Counter: dlock.barrier_purged.
func (s *Service) PeerDown(peer msg.NodeID) {
	s.ctr.BarrierPurged.Add(s.purgeArrivals(peer))
}

// resetPeer is PeerGone's and PeerRecovered's walk over the locks this
// node homes; crashed selects PeerRecovered's rules.
func (s *Service) resetPeer(peer msg.NodeID, crashed bool) (dequeued, released int64) {
	s.mu.Lock()
	type idHome struct {
		id LockID
		h  *homeState
	}
	homes := make([]idHome, 0, len(s.homes))
	for id, h := range s.homes {
		homes = append(homes, idHome{id, h})
	}
	s.mu.Unlock()

	for _, ih := range homes {
		h := ih.h
		h.mu.Lock()
		// last is the latest entry that names the peer as the waiter.
		var last forwarded
		waiting := false
		for i := range h.fwd {
			if h.fwd[i].waiter == peer {
				last, waiting = h.fwd[i], true
				if h.fwd[i].req != nil {
					h.fwd[i].req = nil
					dequeued++
				}
			}
		}
		var owed forwarded
		owes, asking := false, crashed && last.req != nil
		switch {
		case asking:
			// Only the node the peer last waited at can tell (ask).
		case crashed:
			if owed, owes = h.take(peer); !owes && h.owned && h.tail == peer {
				released++
				h.lost()
			}
		case !waiting:
			if _, ok := h.take(peer); !ok && h.owned && h.tail == peer {
				released++
				h.lost()
			}
		}
		h.mu.Unlock()
		switch {
		case asking:
			if s.ask(ih.id, h, last) {
				released++
			}
		case owes:
			released++
			s.grant(uint32(ih.id), h, owed, nil)
		}
	}
	return dequeued, released
}

// ask settles a lock whose crashed waiter, f.waiter, the home forwarded
// to f.at, the one node that knows whether it granted the waiter the
// lock (handleRevoke). If the grant went out, the lock died with the
// waiter: the home grants the waiter forwarded to it, without data, or
// releases the lock. If not, f.at keeps the lock until its next release
// hands it back, and the crashed waiter drops out of the chain: f.at
// owes the lock to the waiter forwarded to it, or is the tail. A request
// served meanwhile finds the crashed waiter still in the chain, as if it
// were alive: a waiter forwarded to it is one that follows it. A node
// that cannot be asked is taken to keep the lock; its own departure or
// recovery settles it. Reports whether the lock was released or granted.
func (s *Service) ask(id LockID, h *homeState, f forwarded) (released bool) {
	reply, err := s.k.Call(f.at, kindRevoke, msg.NewBuilder(16).
		U32(uint32(id)).U32(uint32(f.waiter)).U64(f.req.Seq).Bytes())
	passed := err == nil && len(reply.Payload) == 1 && reply.Payload[0] != 0
	h.mu.Lock()
	h.fwd = slices.DeleteFunc(h.fwd, func(g forwarded) bool { return g.at == f.at && g.waiter == f.waiter })
	next, owes := h.take(f.waiter)
	switch {
	case passed && owes:
		released = true
	case passed && h.owned && h.tail == f.waiter:
		released = true
		h.lost()
	case owes:
		h.fwd = append(h.fwd, forwarded{at: f.at, waiter: next.waiter, req: next.req})
	case h.tail == f.waiter:
		h.tail = f.at
	}
	h.mu.Unlock()
	if passed && owes {
		s.grant(uint32(id), h, next, nil)
	}
	return released
}

// grant gives the lock to f's waiter, with data, in place of node f.at,
// which owed it. A waiter that is lost, or that the grant cannot reach,
// is passed over: the lock goes on to the waiter the home forwarded to
// it, or, if it was the tail, back to the home. data must stay valid
// until grant returns.
func (s *Service) grant(id uint32, h *homeState, f forwarded, data []byte) {
	for {
		if f.req != nil && s.k.ReplyOwned(f.req, lockWire(id, data)) == nil {
			return
		}
		h.mu.Lock()
		next, ok := h.take(f.waiter)
		if !ok {
			if h.owned && h.tail == f.waiter {
				h.owned = false
				h.stored = append([]byte(nil), data...)
			}
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		f = next
	}
}

// lockFromWire decodes the (lockID, data) payload of a lock message. A
// peer's bad input is not this program's bug: a payload that does not
// decode is counted (dlock.drop_malformed) and ok is false.
func (s *Service) lockFromWire(p []byte) (id uint32, data []byte, ok bool) {
	id, data, err := decodeLockPayload(p)
	if err != nil {
		s.ctr.DropMalformed.Inc()
		return 0, nil, false
	}
	return id, data, true
}

// homeFromWire is lockFromWire for the messages a lock's home serves: it
// also resolves the lock's home-side state, and a lock this node does
// not home — where homeState would panic — is counted
// (dlock.drop_misdirected). h is nil when the message is dropped.
func (s *Service) homeFromWire(p []byte) (id uint32, data []byte, h *homeState) {
	id, data, ok := s.lockFromWire(p)
	if !ok {
		return 0, nil, nil
	}
	if s.home(LockID(id)) != s.k.Node() {
		s.ctr.DropMisdirected.Inc()
		return 0, nil, nil
	}
	return id, data, s.homeState(LockID(id))
}

func (s *Service) handleAcquire(req *msg.Msg) vkernel.Outcome {
	id, _, h := s.homeFromWire(req.Payload)
	if h == nil {
		return vkernel.Dropped
	}
	h.mu.Lock()
	// A node asks again only once it has passed the lock on: it owes the
	// waiter forwarded to it nothing more.
	h.take(req.From)
	if !h.owned {
		h.owned, h.tail = true, req.From
		data := h.stored
		h.stored = nil
		h.mu.Unlock()
		s.k.ReplyOwned(req, lockWire(id, data))
		return vkernel.Replied
	}
	tail := h.tail
	if tail == req.From {
		// The tail cannot ask again before it has passed the lock on or
		// handed it back: this is a repeated request, and forwarding it
		// to its own sender would park it for good.
		h.mu.Unlock()
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	h.fwd = append(h.fwd, forwarded{at: tail, waiter: req.From, req: req})
	h.tail = req.From
	h.mu.Unlock()
	// A forward that cannot be sent leaves the entry to the tail's
	// departure or recovery (PeerGone, PeerRecovered).
	s.k.Forward(req, tail, kindPass, encodeLockPayload(id, nil))
	return vkernel.Forwarded
}

// handleRelease takes a lock back from the node that owns it: a naive
// release, a departure's hand-back or a grant that could not be sent.
// The home grants the waiter it forwarded to that node, if any, or parks
// the data; it acknowledges first, since the state the node's next
// request meets is already in place.
func (s *Service) handleRelease(req *msg.Msg) vkernel.Outcome {
	id, data, h := s.homeFromWire(req.Payload)
	if h == nil {
		return vkernel.Dropped
	}
	h.mu.Lock()
	f, owed := h.take(req.From)
	if !owed && h.owned && h.tail == req.From {
		h.owned = false
		h.stored = append([]byte(nil), data...)
	}
	h.mu.Unlock()
	s.k.Reply(req, nil)
	if owed {
		s.grant(id, h, f, data)
	}
	return vkernel.Replied
}

// handlePass serves a waiter's ACQUIRE its home forwarded here: the
// proxy grants it the lock as soon as it owns the lock and no local
// thread holds it. A forward is served only by a proxy that owns or
// requests the lock, has none parked, does not hand every release back
// to the home (naive mode) and was not told the waiter crashed
// (handleRevoke); any other is counted (dlock.drop_forward): the home
// grants a naive proxy's waiter itself.
func (s *Service) handlePass(req *msg.Msg) vkernel.Outcome {
	id, _, ok := s.lockFromWire(req.Payload)
	if !ok {
		return vkernel.Dropped
	}
	if req.Flags&msg.FlagForward == 0 {
		// Only a forward names the waiter to grant.
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	s.mu.Lock()
	naive := s.naive
	s.mu.Unlock()
	p := s.proxy(LockID(id))
	p.mu.Lock()
	defer p.mu.Unlock()
	if naive || p.next != nil || !(p.owner || p.requesting) || keyOf(req) == p.revoked {
		s.ctr.DropForward.Inc()
		return vkernel.Dropped
	}
	p.next = req
	if !p.owner || p.held {
		return vkernel.Parked
	}
	// Free right now: pass it on at once.
	if err := s.pass(LockID(id), p); err != nil {
		s.ctr.HandBackFailed.Inc()
	}
	p.cond.Broadcast()
	return vkernel.Replied
}

// handleRevoke answers a lock's home that asks, at a crashed waiter's
// rejoin, whether this node granted that waiter the lock (ask). Reply 1:
// the grant went out. Reply 0: it did not and never will — a forward
// still parked is dropped, and one still on its way will be — and this
// node's next release hands the lock back to the home (giveBack), at
// once if nobody holds it, for the home to grant whoever follows. A
// payload that does not decode is dlock.drop_malformed, one not from
// the lock's home dlock.drop_misdirected.
func (s *Service) handleRevoke(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := LockID(r.U32())
	w := reqKey{msg.NodeID(r.U32()), r.U64()}
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	if req.From != s.home(id) {
		s.ctr.DropMisdirected.Inc()
		return vkernel.Dropped
	}
	p := s.proxy(id)
	p.mu.Lock()
	passed := p.passed == w
	if !passed {
		if p.next != nil && keyOf(p.next) == w {
			p.next = nil
		} else {
			p.revoked = w
		}
		p.giveBack = p.owner || p.requesting
	}
	p.mu.Unlock()
	// The reply goes first: the home serves the hand-back only once it
	// has the answer.
	s.k.Reply(req, msg.NewBuilder(1).Bool(passed).Bytes())
	p.mu.Lock()
	if p.giveBack && p.owner && !p.held && !p.passing {
		if err := s.handBack(id, p); err != nil {
			s.ctr.HandBackFailed.Inc()
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	return vkernel.Replied
}

// encodeLockPayload packs (lockID, data) for the wire. data == nil means
// "no data"; an empty non-nil slice is preserved as empty.
func encodeLockPayload(id uint32, data []byte) []byte {
	b := msg.NewBuilder(lockPayloadSize(data))
	putLockPayload(b, id, data)
	return b.Bytes()
}

// lockWire is encodeLockPayload built in place as a complete wire
// message in a pooled buffer, for vkernel's ReplyOwned/SendOwned: the
// migratory bytes a grant or a release carries are copied once, from
// where they live to the wire.
func lockWire(id uint32, data []byte) *bufpool.Buffer {
	wb, b := vkernel.NewWire(lockPayloadSize(data))
	putLockPayload(&b, id, data)
	wb.B = b.Bytes()
	return wb
}

func lockPayloadSize(data []byte) int {
	if data == nil {
		return 5
	}
	return 5 + msg.BytesNSize(len(data))
}

func putLockPayload(b *msg.Builder, id uint32, data []byte) {
	b.U32(id)
	if data == nil {
		b.Bool(false)
	} else {
		b.Bool(true)
		b.BytesN(data)
	}
}

// decodeLockPayload unpacks (lockID, data), or reports a payload that
// does not decode. data aliases p, which the receiver owns
// (transport.Endpoint.Recv); what outlives the handler — h.stored — is
// copied out, so a few parked bytes never pin the coalesced frame they
// arrived in.
func decodeLockPayload(p []byte) (id uint32, data []byte, err error) {
	r := msg.NewReader(p)
	id = r.U32()
	if r.Bool() {
		data = r.BytesN()
		if data == nil {
			data = []byte{}
		}
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("dlock: corrupt lock payload: %w", err)
	}
	return id, data, nil
}
