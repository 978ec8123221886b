// Package dlock implements Munin's distributed synchronization substrate
// (paper §3.3.8): distributed locks built from per-node lock servers and
// local proxy objects, plus barriers, atomic integers, condition
// variables and Mesa-style monitors layered on top.
//
// # Protocol
//
// Every lock has a home node (HomeOf(id)). The home holds the lock's
// global state: which node currently owns it and a FIFO queue of nodes
// waiting for ownership. Each node runs a Service holding one proxy per
// lock it has touched. Threads always operate on the local proxy:
//
//   - If the node already owns the lock and no local thread holds it,
//     acquisition is purely local — zero messages. This is the proxy
//     benefit the paper describes.
//   - Otherwise the first local waiter issues an ACQUIRE call to the
//     home; the reply *is* the ownership grant (the caller stays
//     suspended in the V-kernel Call until granted).
//   - The home RECALLs the lock from the owning node when other nodes
//     queue. The owner surrenders ownership (RELEASE to home) once its
//     local holder lets go; the home then grants to the head of the
//     queue. Remote waiters take priority over local re-acquisition once
//     a recall has arrived, which keeps transfers FIFO at the home and
//     prevents remote starvation.
//
// # Migratory data
//
// Grant and release messages carry an opaque data payload. The migratory
// coherence protocol (paper §3.3.3) registers a provider/applier pair on
// the proxy, so the migratory objects guarded by a lock travel inside
// the lock-transfer messages themselves — "the object is migrated,
// together with the lock itself, to the next thread in the lock queue."
package dlock

import (
	"fmt"
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

// Message kinds used by the lock service: one contiguous block, its
// Call kinds, then its one-way kinds, then a sentinel one past the end.
// The dispatch tables are keyed by kind minus the first kind of their
// half, so a kind given two handlers, or a handler on a kind outside
// its half, does not compile, and a kind given none panics in
// NewService.
const (
	kindAcquire  = msg.KindLockBase + iota // Call: request ownership; reply = grant(+data)
	kindBarrier                            // Call: arrive at barrier; reply = release
	kindCarrier                            // Call: a carrier's arrival at a barrier; reply = release
	kindFetchAdd                           // Call: atomic fetch-and-add
	kindAtomLoad                           // Call: atomic load
	kindCondWait                           // Call: block until signaled (pre-registered)
	kindCondReg                            // Call: register waiter, returns ticket
	kindCondSig                            // Call: signal/broadcast
	kindRelease                            // Send: surrender ownership to home (+data)
	kindRecall                             // Send: home asks owner to surrender
	kindLockEnd                            // sentinel
)

var (
	lockCalls = [kindRelease - kindAcquire]func(*Service, *msg.Msg) vkernel.Outcome{
		kindAcquire - kindAcquire:  (*Service).handleAcquire,
		kindBarrier - kindAcquire:  (*Service).handleBarrier,
		kindCarrier - kindAcquire:  (*Service).handleCarrier,
		kindFetchAdd - kindAcquire: (*Service).handleFetchAdd,
		kindAtomLoad - kindAcquire: (*Service).handleAtomLoad,
		kindCondWait - kindAcquire: (*Service).handleCondWait,
		kindCondReg - kindAcquire:  (*Service).handleCondReg,
		kindCondSig - kindAcquire:  (*Service).handleCondSig,
	}
	lockSends = [kindLockEnd - kindRelease]func(*Service, *msg.Msg){
		kindRelease - kindRelease: (*Service).handleRelease,
		kindRecall - kindRelease:  (*Service).handleRecall,
	}
)

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

	// naive disables proxy ownership caching: every release surrenders
	// the lock to the home. Used by the E8 experiment as the baseline.
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
	// surrendering holds local acquirers off while a surrender takes the
	// migratory data outside mu and sends the release.
	surrendering bool
	recall       bool // home asked us to surrender

	// Migratory data hooks (nil when no data is attached to the lock).
	provide func(emit func([]byte))
	apply   func([]byte)
}

// homeState is the global state of a lock homed on this node.
type homeState struct {
	mu     lockrank.Mutex[lockrank.LockHome]
	owned  bool
	owner  msg.NodeID
	queue  []pendingGrant
	stored []byte // migratory data parked at home while unowned
}

type pendingGrant struct {
	node msg.NodeID
	req  *msg.Msg // pending ACQUIRE call to reply to
}

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
	vkernel.HandleSends(k, kindRelease, s, lockSends[:])
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
			// Local (zero-message) acquisition. A pending recall does
			// not block this acquisition: the node is allowed to enter
			// the critical section once more, and Release will then
			// surrender ownership to the home. (Surrendering here
			// instead would bounce a fresh grant away before the
			// granted thread ever ran, since the home recalls
			// eagerly when more waiters are queued behind a grant.)
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
		if !p.requesting && !p.surrendering {
			p.requesting = true
			apply := p.apply
			p.mu.Unlock()

			reply, err := s.k.Call(s.home(id), kindAcquire, encodeLockPayload(uint32(id), nil))
			var data []byte
			if err == nil {
				_, data, err = decodeLockPayload(reply.Payload)
			}
			if err != nil {
				p.mu.Lock()
				p.requesting = false
				p.cond.Broadcast()
				panic(fmt.Sprintf("dlock: acquire lock %d: %v", id, err))
			}
			// The home's grant has arrived but ownership is not yet
			// recorded: a member dying here leaves the home believing
			// it owns the lock.
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
	if p.recall || naive {
		s.surrender(id, p)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// surrender gives global ownership back to the home. Caller holds p.mu;
// the proxy must be owner with the lock free. The migratory data is
// taken and the release sent with p.mu released, because provide takes
// the object's lock, which ranks below p.mu; surrendering keeps local
// acquirers from asking the home for the lock before the release is on
// its way. Returns with p.mu held.
func (s *Service) surrender(id LockID, p *proxy) {
	p.owner, p.recall, p.surrendering = false, false, true
	provide := p.provide
	p.mu.Unlock()
	var wb *bufpool.Buffer
	if provide != nil {
		provide(func(data []byte) { wb = lockWire(uint32(id), data) })
	} else {
		wb = lockWire(uint32(id), nil)
	}
	err := s.k.SendOwned(s.home(id), kindRelease, wb)
	p.mu.Lock()
	p.surrendering = false
	if err != nil {
		panic(fmt.Sprintf("dlock: release lock %d: %v", id, err))
	}
}

// PeerGone prunes a cleanly departed member from this node's home-side
// lock state: its queued ACQUIRE requests are dropped (the waiter's
// process is gone; granting to it would only pay a failed send), and a
// lock it still owned is released — granted to the next queued waiter,
// or parked unowned — so the remaining members are not deadlocked
// behind an owner that will never surrender. A migratory payload the
// departed owner held is lost with it (clean departure while holding a
// lock is a program error; this keeps the failure local to that lock).
//
// The runtime calls this when the transport reports a goodbye
// (transport.PeerGoneNotifier), strictly after everything the peer sent
// — including any final RELEASE — has been dispatched, so only state
// the peer genuinely abandoned is pruned. Barrier arrivals are left
// untouched: an arrival that already counted keeps counting (the
// release reply to the departed member fails once, harmlessly).
//
// Counters (on the kernel's set): dlock.gone_dequeued (queued grants
// dropped), dlock.gone_owner (owned locks force-released).
func (s *Service) PeerGone(peer msg.NodeID) {
	dequeued, released := s.resetPeer(peer)
	s.ctr.GoneDequeued.Add(dequeued)
	s.ctr.GoneOwner.Add(released)
}

// PeerRecovered rebuilds this home's lock state for a peer whose
// restarted incarnation is rejoining (protocol recovery): the dead
// incarnation's queued grant requests are dropped — their pending
// calls died with its connection — and a lock it still held is
// force-released to the next waiter, exactly like a departing owner's.
// The fresh incarnation re-enters queues via ordinary acquires. Barrier
// arrivals the dead incarnation parked here are dropped (PeerDown).
//
// Counters: dlock.recover_dequeued, dlock.recover_owner,
// dlock.barrier_purged.
func (s *Service) PeerRecovered(peer msg.NodeID) {
	s.PeerDown(peer)
	dequeued, released := s.resetPeer(peer)
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

// resetPeer drops peer from every lock queue this node homes and
// force-releases any lock peer owned, granting it to the next queued
// waiter. Shared by PeerGone (clean departure) and PeerRecovered
// (crashed incarnation rejoining).
func (s *Service) resetPeer(peer msg.NodeID) (dequeued, released int64) {
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
		kept := h.queue[:0]
		for _, pg := range h.queue {
			if pg.node == peer {
				dequeued++
				continue
			}
			kept = append(kept, pg)
		}
		h.queue = kept
		var next *pendingGrant
		moreWaiters := false
		if h.owned && h.owner == peer {
			released++
			if len(h.queue) > 0 {
				pg := h.queue[0]
				h.queue = h.queue[1:]
				h.owner = pg.node
				moreWaiters = len(h.queue) > 0
				next = &pg
			} else {
				h.owned = false
				h.stored = nil // the owner's migratory payload left with it
			}
		}
		h.mu.Unlock()
		if next != nil {
			// Grant with no data: the departed owner never provided its
			// release payload.
			s.k.Reply(next.req, encodeLockPayload(uint32(ih.id), nil))
			if moreWaiters {
				s.k.Send(next.node, kindRecall, encodeLockPayload(uint32(ih.id), nil))
			}
		}
	}
	return dequeued, released
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
	if !h.owned {
		h.owned = true
		h.owner = req.From
		data := h.stored
		h.stored = nil
		h.mu.Unlock()
		s.k.ReplyOwned(req, lockWire(id, data))
		return vkernel.Replied
	}
	h.queue = append(h.queue, pendingGrant{node: req.From, req: req})
	needRecall := len(h.queue) == 1
	owner := h.owner
	h.mu.Unlock()
	if needRecall {
		s.k.Send(owner, kindRecall, encodeLockPayload(id, nil))
	}
	return vkernel.Parked
}

func (s *Service) handleRelease(req *msg.Msg) {
	id, data, h := s.homeFromWire(req.Payload)
	if h == nil {
		return
	}
	h.mu.Lock()
	if len(h.queue) == 0 {
		h.owned = false
		h.stored = append([]byte(nil), data...)
		h.mu.Unlock()
		return
	}
	next := h.queue[0]
	h.queue = h.queue[1:]
	h.owner = next.node
	moreWaiters := len(h.queue) > 0
	h.mu.Unlock()
	// Grant: the reply to the waiter's pending ACQUIRE call, carrying
	// the migratory data that rode in on the release.
	s.k.ReplyOwned(next.req, lockWire(id, data))
	if moreWaiters {
		s.k.Send(next.node, kindRecall, encodeLockPayload(id, nil))
	}
}

func (s *Service) handleRecall(req *msg.Msg) {
	id, _, ok := s.lockFromWire(req.Payload)
	if !ok {
		return
	}
	p := s.proxy(LockID(id))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.owner && !p.held {
		// Free right now: surrender immediately.
		s.surrender(LockID(id), p)
		p.cond.Broadcast()
		return
	}
	// Held (or ownership still in flight): mark; Release/Acquire will
	// honor it.
	p.recall = true
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
