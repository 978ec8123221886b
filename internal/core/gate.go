package core

import (
	"errors"
	"fmt"
	"sort"

	"munin/internal/failpoint"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// The run gate: the rendezvous that makes Run a cluster-wide barrier in
// mesh shape, and the place divergent setup code is caught.
//
// Every Run is bracketed by two gates (enter and exit), numbered by a
// per-process gate sequence that advances in program order — so gate N
// means the same point in the program in every member. Node 0 is the
// rendezvous point: members 1..n-1 send their arrival as a Call carrying
// their setup digest (running hash + record count over every
// Alloc/NewLock/NewBarrier/NewAtomic, including allocation options and
// initial contents) and the Run's thread count; node 0 parks the
// arrivals until its own program reaches the same gate, then verifies
// every member's digest against its own and releases everyone at once.
// The reply carries the verdict, so a member whose — or whose peer's —
// setup diverged gets a *SetupDivergenceError instead of undefined
// behaviour from mismatched object IDs. No extra connections and no
// coordinator state outside node 0's parked-arrival map are needed, and
// the gate costs one round trip per remote member per Run boundary.

// The gate's message kinds: one contiguous block of Call kinds, ended by
// a sentinel, answered by gateCalls (keyed by kind - kindRunGate).
// Registered on the self kernel of every mesh member; only node 0 ever
// receives either.
const (
	// kindRunGate is the SPMD run-gate rendezvous message (a Call to
	// node 0; the reply is the release + verdict).
	kindRunGate = msg.KindSyncBase + 1 + iota
	// kindGateSync is a recovering member's gate resync (a Call to node
	// 0 carrying its setup digest; the reply is a verdict plus the gate
	// sequence the member must adopt so its next arrival pairs with the
	// survivors' — see handleGateSync).
	kindGateSync
	kindGateEnd // sentinel
)

var gateCalls = [kindGateEnd - kindRunGate]func(*System, *msg.Msg) vkernel.Outcome{
	kindRunGate - kindRunGate:  (*System).handleRunGate,
	kindGateSync - kindRunGate: (*System).handleGateSync,
}

// Gate verdict codes carried in the reply.
const (
	gateOK         = 0 // released: everyone arrived, digests agree
	gateDivergence = 1 // setup digests/thread counts disagree
	gateMemberLost = 2 // a member died or departed; the gate can never fill
)

// fnv constants for the setup digest (FNV-1a, 64 bit).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// recordSetup folds one allocation event into the setup digest. The
// textual encoding is not wire format — it only needs to be identical
// across members executing identical setup code. In-process systems
// skip the fold entirely: the digest is only ever read by the mesh
// run gate.
func (s *System) recordSetup(parts ...any) {
	if s.self < 0 {
		return
	}
	rec := fmt.Sprintln(parts...)
	s.mu.Lock()
	sum := s.setupSum
	for i := 0; i < len(rec); i++ {
		sum ^= uint64(rec[i])
		sum *= fnvPrime
	}
	s.setupSum = sum
	s.setupN++
	s.mu.Unlock()
}

// recordSetupRaw folds raw bytes (an allocation's initial contents)
// into the digest without text formatting — part of the preceding
// record, so it does not advance the record count.
func (s *System) recordSetupRaw(b []byte) {
	if s.self < 0 {
		return
	}
	s.mu.Lock()
	sum := s.setupSum
	for _, c := range b {
		sum ^= uint64(c)
		sum *= fnvPrime
	}
	s.setupSum = sum
	s.mu.Unlock()
}

// SetupDivergenceError reports that the members of an SPMD mesh cluster
// did not execute identical setup code: their allocation digests (or
// Run thread counts) differ, so object, lock, barrier or atomic IDs
// would no longer mean the same thing in every process. It is returned
// by RunErr (and panicked by Run) in every member, at the gate where
// the divergence was detected — before any thread touches shared
// memory with mismatched IDs.
type SetupDivergenceError struct {
	// Gate is the gate sequence number where the mismatch surfaced.
	Gate uint64
	// Detail names the diverging members and their digests.
	Detail string
}

func (e *SetupDivergenceError) Error() string {
	return fmt.Sprintf("munin: SPMD setup divergence at run gate %d: %s", e.Gate, e.Detail)
}

// gateArrival is one member's identity at a gate.
type gateArrival struct {
	node     msg.NodeID
	sum      uint64
	n        int
	nthreads int
}

// gateInfo is node 0's state for one gate: parked remote arrivals plus
// the local one.
type gateInfo struct {
	reqs     []*msg.Msg
	local    bool
	localArr gateArrival
	localRes chan error
}

func (s *System) gateInfoFor(seq uint64) *gateInfo {
	g, ok := s.gates[seq]
	if !ok {
		g = &gateInfo{localRes: make(chan error, 1)}
		s.gates[seq] = g
	}
	return g
}

// runGate brings every member of the mesh cluster to the next gate and
// returns when all have arrived and the setup digests agree.
func (s *System) runGate(nthreads int) error {
	s.mu.Lock()
	s.gateSeq++
	seq := s.gateSeq
	arr := gateArrival{node: s.self, sum: s.setupSum, n: s.setupN, nthreads: nthreads}
	s.mu.Unlock()

	if s.self != 0 {
		payload := msg.NewBuilder(32).U64(seq).U64(arr.sum).Int(arr.n).Int(arr.nthreads).Bytes()
		// The member is about to park in the gate (the Call blocks
		// until node 0's verdict): a crash here dies at — or parked in
		// — the rendezvous.
		failpoint.Hit(failpoint.GatePark)
		reply, err := s.clu.Kernel(s.self).Call(0, kindRunGate, payload)
		if err != nil {
			// Node 0 lost — it may have failed this very gate over a
			// third member, returned and departed before the arrival
			// landed — is a member lost: the verdict node 0 itself
			// hands out (failGateLocked), typed cause included.
			var gone *transport.ErrPeerGone
			var down *transport.ErrPeerDown
			if errors.As(err, &gone) || errors.As(err, &down) {
				return fmt.Errorf("munin: run gate %d: member 0 lost: %w", seq, err)
			}
			return fmt.Errorf("munin: run gate %d: %w", seq, err)
		}
		r := msg.NewReader(reply.Payload)
		code := r.U8()
		if code == gateOK {
			return nil
		}
		detail := r.Str()
		if r.Err() != nil {
			return fmt.Errorf("munin: run gate %d: corrupt verdict: %v", seq, r.Err())
		}
		if code == gateMemberLost {
			return fmt.Errorf("munin: run gate %d: %s", seq, detail)
		}
		return &SetupDivergenceError{Gate: seq, Detail: detail}
	}

	s.gateMu.Lock()
	g := s.gateInfoFor(seq)
	g.local = true
	g.localArr = arr
	s.progressGateLocked(seq, g)
	s.gateMu.Unlock()
	return <-g.localRes
}

// gatePeerLost records that a member died or departed and fails every
// parked — and every future — gate: with a member missing, a gate can
// never collect all arrivals, and an unfailed gate would hang every
// surviving member's Run forever. Wired to both OnPeerDown and
// OnPeerGone by newMeshMember; runs on transport goroutines, so it
// must not block (replies are asynchronous enqueues).
func (s *System) gatePeerLost(peer msg.NodeID, cause error) {
	s.gateMu.Lock()
	if s.lostPeers == nil {
		s.lostPeers = make(map[msg.NodeID]error)
	}
	if _, dup := s.lostPeers[peer]; !dup {
		s.lostPeers[peer] = cause
	}
	for seq, g := range s.gates {
		s.failGateLocked(seq, g)
	}
	s.gateMu.Unlock()
}

// failGateLocked fails one gate with the member-lost verdict. Caller
// holds s.gateMu and has at least one entry in s.lostPeers.
func (s *System) failGateLocked(seq uint64, g *gateInfo) {
	delete(s.gates, seq)
	detail := ""
	var cause error
	for peer, err := range s.lostPeers {
		if detail != "" {
			detail += "; "
		}
		detail += fmt.Sprintf("member %d lost: %v", peer, err)
		if cause == nil {
			cause = fmt.Errorf("munin: run gate %d: member %d lost: %w", seq, peer, err)
		}
	}
	payload := msg.NewBuilder(8 + len(detail)).U8(gateMemberLost).Str(detail).Bytes()
	k := s.clu.Kernel(s.self)
	for _, req := range g.reqs {
		k.Reply(req, payload)
	}
	if g.local {
		g.localRes <- cause
	}
}

// progressGateLocked advances one gate: fail it if a member has been
// lost, otherwise complete it if everyone has arrived. Caller holds
// s.gateMu.
func (s *System) progressGateLocked(seq uint64, g *gateInfo) {
	if len(s.lostPeers) > 0 {
		s.failGateLocked(seq, g)
		return
	}
	s.completeGateIfReady(seq, g)
}

// gatePeerDown handles a peer's wire death. Without a reconnect policy
// the outage is terminal — delegate to gatePeerLost, which fails every
// parked and future gate. With one, the peer is presumed to be
// restarting: record it as down (gates simply stay parked — they
// cannot fill until the recovered incarnation arrives) and let the
// rejoin handshake clear the mark. Runs on transport goroutines; must
// not block.
func (s *System) gatePeerDown(peer msg.NodeID, cause error) {
	if !s.recoverable {
		s.gatePeerLost(peer, cause)
		return
	}
	s.gateMu.Lock()
	if s.downPeers == nil {
		s.downPeers = make(map[msg.NodeID]error)
	}
	if _, dup := s.downPeers[peer]; !dup {
		s.downPeers[peer] = cause
	}
	// Purge the dead incarnation's parked arrivals right away: its
	// pending Calls died with the connection, so counting one toward a
	// gate could complete the gate without the member — survivors would
	// sail on while the recovered incarnation parks at a gate nobody
	// else will ever reach. The gate resync purges again defensively.
	purged := int64(0)
	for _, g := range s.gates {
		kept := g.reqs[:0]
		for _, pr := range g.reqs {
			if pr.From == peer {
				purged++
				continue
			}
			kept = append(kept, pr)
		}
		g.reqs = kept
	}
	s.gateMu.Unlock()
	if n := s.nodes[s.self]; n != nil {
		n.C.Add(stats.CMemberDownWait, 1)
		if purged > 0 {
			n.C.Add(stats.CGateStalePurged, purged)
		}
	}
}

// gatePeerBack clears a peer's down (and lost) mark once its wire is
// re-established — fired by the transport's reconnect notifier before
// any frame from the fresh connection is dispatched, so by the time
// the recovered member's announce or gate arrival comes in, this
// member no longer considers it missing.
func (s *System) gatePeerBack(peer msg.NodeID) {
	s.gateMu.Lock()
	delete(s.downPeers, peer)
	delete(s.lostPeers, peer)
	s.gateMu.Unlock()
	if n := s.nodes[s.self]; n != nil {
		n.C.Add(stats.CMemberReconnected, 1)
	}
}

// handleRunGate parks a remote member's arrival and completes the gate
// once everyone — including this process's own program — has reached
// it; the completion replies to every parked arrival, this one included.
func (s *System) handleRunGate(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	seq := r.U64()
	if r.Err() != nil {
		s.nodes[s.self].C.Add(stats.CGateDropMalformed, 1)
		return vkernel.Dropped
	}
	s.gateMu.Lock()
	g := s.gateInfoFor(seq)
	g.reqs = append(g.reqs, req)
	s.progressGateLocked(seq, g)
	s.gateMu.Unlock()
	return vkernel.Parked
}

// completeGateIfReady releases the gate once all members have arrived:
// verify every remote digest against the local one, reply the verdict
// to every remote, deliver it to the local waiter, and forget the gate.
// Caller holds s.gateMu.
func (s *System) completeGateIfReady(seq uint64, g *gateInfo) {
	if !g.local || len(g.reqs) != s.nnodes-1 {
		return
	}
	delete(s.gates, seq)

	local := g.localArr
	var mismatches []string
	for _, req := range g.reqs {
		r := msg.NewReader(req.Payload)
		arr := gateArrival{node: req.From}
		_ = r.U64() // seq, already decoded by the handler
		arr.sum = r.U64()
		arr.n = r.Int()
		arr.nthreads = r.Int()
		switch {
		case r.Err() != nil:
			mismatches = append(mismatches,
				fmt.Sprintf("node %d: corrupt gate arrival (%v)", arr.node, r.Err()))
		case arr.sum != local.sum || arr.n != local.n || arr.nthreads != local.nthreads:
			mismatches = append(mismatches,
				fmt.Sprintf("node %d: %d setup records (digest %016x), Run(%d) vs node 0: %d (digest %016x), Run(%d)",
					arr.node, arr.n, arr.sum, arr.nthreads, local.n, local.sum, local.nthreads))
		}
	}
	sort.Strings(mismatches)

	var verdict error
	ok := len(mismatches) == 0
	detail := ""
	if !ok {
		for i, m := range mismatches {
			if i > 0 {
				detail += "; "
			}
			detail += m
		}
		verdict = &SetupDivergenceError{Gate: seq, Detail: detail}
	}
	// Every member learns the verdict — a matching member must not sail
	// on while a diverged one aborts, or the survivors would hang at
	// the next synchronization that involves the aborted member.
	b := msg.NewBuilder(8 + len(detail))
	if ok {
		b.U8(gateOK)
	} else {
		b.U8(gateDivergence).Str(detail)
	}
	payload := b.Bytes()
	k := s.clu.Kernel(s.self)
	for _, req := range g.reqs {
		k.Reply(req, payload)
	}
	g.localRes <- verdict
}

// handleGateSync serves a recovering member's gate resync on node 0:
// verify its setup digest (the recovered incarnation re-ran the same
// setup code, so any difference is divergence), forget it from the
// down/lost sets, purge its dead incarnation's parked gate arrivals
// (their pending calls died with the old connection; replying would
// address a call the new process never made), and reply the gate
// sequence it must adopt. The sequence is chosen so the member's NEXT
// arrival pairs with the survivors': the earliest gate still parked
// here minus one, or node 0's own current sequence when nothing is
// parked.
func (s *System) handleGateSync(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	sum := r.U64()
	n := r.Int()
	if r.Err() != nil {
		s.nodes[s.self].C.Add(stats.CGateDropMalformed, 1)
		return vkernel.Dropped
	}
	peer := req.From
	s.mu.Lock()
	mySum, myN, mySeq := s.setupSum, s.setupN, s.gateSeq
	s.mu.Unlock()
	k := s.clu.Kernel(s.self)
	if sum != mySum || n != myN {
		detail := fmt.Sprintf("node %d: %d setup records (digest %016x) vs node 0: %d (digest %016x)",
			peer, n, sum, myN, mySum)
		k.Reply(req, msg.NewBuilder(8+len(detail)).U8(gateDivergence).Str(detail).Bytes())
		return vkernel.Replied
	}
	s.gateMu.Lock()
	delete(s.downPeers, peer)
	delete(s.lostPeers, peer)
	next := mySeq
	for seq, g := range s.gates {
		kept := g.reqs[:0]
		for _, pr := range g.reqs {
			if pr.From == peer {
				continue // stale arrival from the dead incarnation
			}
			kept = append(kept, pr)
		}
		g.reqs = kept
		if seq-1 < next {
			next = seq - 1
		}
	}
	s.gateMu.Unlock()
	if node := s.nodes[s.self]; node != nil {
		node.C.Add(stats.CRecoverGateSynced, 1)
	}
	k.Reply(req, msg.NewBuilder(16).U8(gateOK).U64(next).Bytes())
	return vkernel.Replied
}

// resyncGate is the recovering member's side of the gate resync: send
// our setup digest to node 0, adopt the gate sequence it replies, so
// this process's next runGate arrival matches the gate the survivors
// are (or will be) parked at.
func (s *System) resyncGate() error {
	s.mu.Lock()
	sum, n := s.setupSum, s.setupN
	s.mu.Unlock()
	payload := msg.NewBuilder(24).U64(sum).Int(n).Bytes()
	reply, err := s.clu.Kernel(s.self).Call(0, kindGateSync, payload)
	if err != nil {
		return fmt.Errorf("munin: gate resync: %w", err)
	}
	r := msg.NewReader(reply.Payload)
	code := r.U8()
	if code != gateOK {
		detail := r.Str()
		if r.Err() != nil {
			return fmt.Errorf("munin: gate resync: corrupt verdict: %v", r.Err())
		}
		if code == gateDivergence {
			return &SetupDivergenceError{Detail: detail}
		}
		return fmt.Errorf("munin: gate resync: %s", detail)
	}
	next := r.U64()
	if r.Err() != nil {
		return fmt.Errorf("munin: gate resync: corrupt verdict: %v", r.Err())
	}
	s.mu.Lock()
	s.gateSeq = next
	s.mu.Unlock()
	s.nodes[s.self].C.Add(stats.CRecoverGateResync, 1)
	return nil
}
