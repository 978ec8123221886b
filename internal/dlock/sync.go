package dlock

import (
	"fmt"
	"slices"

	"munin/internal/cluster"
	"munin/internal/failpoint"
	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/vkernel"
)

// ---------------------------------------------------------------------
// Barriers
//
// A barrier is homed on one node, which holds every arrival of an epoch
// until the last participant arrives, then releases them all at once. A
// participant on another node arrives with a Call that the home leaves
// parked; a participant on the home itself enters the barrier's state
// directly and waits for its release to be handed to it, so its arrival
// sends no message. A generation counter is unnecessary because a
// participant cannot re-arrive before its own release, and every
// release is out before the next epoch's state is created.
//
// An arrival is the barrier's ID and participant count (12 bytes). A
// carrier's arrival (kindCarrier, BarrierCarry) is one whose participant
// applies its release: it may carry, behind the header, the updates the
// participant publishes at the barrier, opaque here, and the kind alone
// says it is a carrier, so one that carries nothing is as long as a
// plain arrival (kindBarrier, BarrierWait), which carries nothing. The
// home checks a carried part as it arrives and merges every carried part
// once, at the last arrival, through the hooks the coherence layer
// attached (AttachBarrier); each remote carrier's release then carries
// that participant's part of the merge. A release on the wire is empty
// when it carries nothing and the merge met no error; otherwise it is
// the error's text (a length-prefixed string, empty for none) followed
// by the participant's part.

// barrierHeader is the size of an arrival that carries nothing: the
// barrier's ID (U32) and participant count (Int).
const barrierHeader = 12

// Arrival is one participant's arrival at a barrier's home.
type Arrival struct {
	From msg.NodeID
	// Carrier is set for a carrier's arrival (BarrierCarry), whose
	// participant applies its release.
	Carrier bool
	// Carried is a remote carrier's arrival past its header: the updates
	// it carries, empty when it carries none. The home keeps it until
	// the release.
	Carried []byte
	// Local is what this node's own carrier publishes, handed to the
	// merge in place (Carry.Local); nil for every other arrival.
	Local any
}

// Carry is what a carrier's arrival publishes. An arrival sent to
// another node carries the Size bytes Write puts behind its header (none
// when Size is 0); an arrival at this node's own barrier hands Local to
// the merge instead (nil: nothing).
type Carry struct {
	Size  int
	Write func(*msg.Builder)
	Local any
}

// Releases is a merge's release bodies, one per arrival, each written
// straight into its remote participant's reply. A local participant's
// body is never asked for: its part of the merge took effect in place.
// Done is called once every reply is written.
type Releases interface {
	// Size is the byte size of arrival i's release body, 0 for none.
	Size(i int) int
	// Put writes arrival i's release body: Size(i) bytes.
	Put(i int, b *msg.Builder)
	Done()
}

// AttachBarrier registers the coherence layer's barrier hooks on this
// node. check is called on each arrival that carries something on the
// wire, as it arrives; false drops the arrival as malformed
// (dlock.drop_malformed), and it does not count. merge is called once an
// epoch, when the last participant arrives and at least one arrival
// carries something, with every arrival in arrival order and no dlock
// mutex held. It returns the release bodies (nil for none) and the
// error, if any, the home met publishing the updates; every
// participant's release reports that error.
func (s *Service) AttachBarrier(check func(Arrival) bool, merge func([]Arrival) (Releases, error)) {
	s.mu.Lock()
	s.barrierCheck, s.barrierMerge = check, merge
	s.mu.Unlock()
}

// BarrierHome returns the node barrier id is homed on.
func (s *Service) BarrierHome(id BarrierID) msg.NodeID {
	return cluster.HomeOf(uint64(id), s.nodes)
}

// BarrierArrived returns how many arrivals barrier id's open epoch has
// parked at this node, its home, its own participants' included; 0 when
// none is open. A test waits on it to stage a member's death with its
// arrival parked.
func (s *Service) BarrierArrived(id BarrierID) int {
	s.mu.Lock()
	b := s.barriers[id]
	s.mu.Unlock()
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.arrived)
}

// BarrierWait blocks until n participants (including the caller) have
// arrived at barrier id. It panics, like every rendezvous here, if the
// arrival fails or the home reports an error. Its arrival is not a
// carrier's: it carries nothing and gets no release body.
func (s *Service) BarrierWait(id BarrierID, n int) {
	lockrank.Blocking()
	if _, err := s.barrier(id, n, false, Carry{}); err != nil {
		panic(fmt.Sprintf("dlock: barrier %d: %v", id, err))
	}
}

// BarrierCarry is BarrierWait for a carrier: a participant that
// publishes updates at the barrier (c) and applies its release. It
// returns the release's body — this participant's part of the home's
// merge — and the error the arrival failed with or the home reported;
// the body is returned with the home's error too, because the merge
// happened. An arrival at a barrier homed on this node sends nothing and
// gets no body, since its part of the merge took effect in place: it
// fails only if the kernel closes while it waits. A one-party barrier
// sends nothing either, so the caller must not hand it anything to
// carry.
func (s *Service) BarrierCarry(id BarrierID, n int, c Carry) ([]byte, error) {
	lockrank.Blocking()
	return s.barrier(id, n, true, c)
}

// barrier is one arrival at barrier id, a carrier's or a plain one.
func (s *Service) barrier(id BarrierID, n int, carrier bool, c Carry) ([]byte, error) {
	if n <= 0 {
		panic("dlock: barrier needs n >= 1")
	}
	if n == 1 {
		if c.Size > 0 || c.Local != nil {
			panic("dlock: a one-party barrier carries nothing")
		}
		return nil, nil
	}
	home := s.BarrierHome(id)
	if home == s.k.Node() {
		return nil, s.waitHere(id, n, carrier, c.Local)
	}
	wb, b := vkernel.NewWire(barrierHeader + c.Size)
	b.U32(uint32(id)).Int(n)
	if c.Size > 0 {
		c.Write(&b)
	}
	wb.B = b.Bytes()
	var p *vkernel.Pending
	var err error
	if carrier {
		p, err = s.k.CallStartOwned(home, kindCarrier, wb)
	} else {
		p, err = s.k.CallStartOwned(home, kindBarrier, wb)
	}
	if err != nil {
		return nil, err
	}
	if c.Size > 0 && failpoint.Armed(failpoint.BarrierCarried) {
		// The crash point wants the arrival on the wire; Wait reports a
		// dead wire or a closing node without this fence.
		if err := s.k.Flush(); err != nil {
			return nil, err
		}
		// The carried updates are on the wire and the home holds them
		// unmerged: a member dying here leaves its arrival parked there.
		failpoint.Hit(failpoint.BarrierCarried)
	}
	replies, err := p.Wait()
	if err != nil {
		return nil, err
	}
	reply := replies[0]
	body, text, ok := decodeRelease(reply.Payload)
	if !ok {
		return nil, fmt.Errorf("barrier %d: malformed release from node %d", id, home)
	}
	if text != "" {
		return body, fmt.Errorf("at its home, node %d: %s", home, text)
	}
	return body, nil
}

// waitHere is an arrival at a barrier homed on this node: it enters the
// barrier's state as any arrival does and waits for its release, or for
// the kernel to close.
func (s *Service) waitHere(id BarrierID, n int, carrier bool, local any) error {
	a := arrival{Arrival: Arrival{From: s.k.Node(), Carrier: carrier, Local: local}, wake: make(chan error, 1)}
	if ok, _ := s.arrive(id, n, a); !ok {
		return fmt.Errorf("barrier %d: this node's own arrival was dropped as malformed", id)
	}
	select {
	case err := <-a.wake:
		return err
	case <-s.k.Done():
		return s.k.Err()
	}
}

// handleBarrier takes a plain arrival, which carries nothing.
func (s *Service) handleBarrier(req *msg.Msg) vkernel.Outcome {
	if len(req.Payload) > barrierHeader {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	return s.handleArrival(req, false)
}

// handleCarrier takes a carrier's arrival.
func (s *Service) handleCarrier(req *msg.Msg) vkernel.Outcome {
	return s.handleArrival(req, true)
}

func (s *Service) handleArrival(req *msg.Msg, carrier bool) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := BarrierID(r.U32())
	n := r.Int()
	// A count below one would release every parked waiter at once.
	if r.Err() != nil || n <= 0 {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	ok, last := s.arrive(id, n, arrival{Arrival: Arrival{From: req.From, Carrier: carrier, Carried: req.Payload[barrierHeader:]}, req: req})
	switch {
	case !ok:
		return vkernel.Dropped
	case last:
		return vkernel.Replied
	}
	return vkernel.Parked
}

// arrive enters a into barrier id's open epoch of n participants and,
// if it is the last to arrive, releases the epoch. An arrival whose
// carried part fails its check, or whose count disagrees with the open
// epoch's, is dropped (dlock.drop_malformed): ok is false and it does
// not count.
func (s *Service) arrive(id BarrierID, n int, a arrival) (ok, last bool) {
	s.mu.Lock()
	b, found := s.barriers[id]
	if !found {
		b = &barrierState{}
		s.barriers[id] = b
	}
	check, merge := s.barrierCheck, s.barrierMerge
	s.mu.Unlock()
	if len(a.Carried) > 0 && (check == nil || !check(a.Arrival)) {
		s.ctr.DropMalformed.Inc()
		return false, false
	}

	b.mu.Lock()
	switch {
	case b.n == 0:
		b.n = n
	case n != b.n:
		// A count that disagrees with the open epoch's would re-target
		// it, releasing the waiters early or never.
		b.mu.Unlock()
		s.ctr.DropMalformed.Inc()
		return false, false
	}
	b.arrived = append(b.arrived, a)
	if len(b.arrived) < n {
		b.mu.Unlock()
		return true, false
	}
	waiters := b.arrived
	b.arrived, b.n = nil, 0
	b.mu.Unlock()
	s.release(waiters, merge)
	return true, true
}

// release answers every arrival of a completed epoch, merging what they
// carry first. Each reply is sent whatever became of the others: a
// participant whose wire died fails its own send only.
func (s *Service) release(waiters []arrival, merge func([]Arrival) (Releases, error)) {
	var rel Releases
	var err error
	if merge != nil && slices.ContainsFunc(waiters, func(w arrival) bool { return len(w.Carried) > 0 || w.Local != nil }) {
		arrivals := make([]Arrival, len(waiters))
		for i, w := range waiters {
			arrivals[i] = w.Arrival
		}
		rel, err = merge(arrivals)
	}
	text := ""
	if err != nil {
		text = err.Error()
	}
	// Every remote participant's reply is queued before any local
	// participant wakes: a local participant may end its Run at once,
	// and the goodbye its Close sends queues behind what is already sent.
	for i, w := range waiters {
		if w.req == nil {
			continue
		}
		size := 0
		if rel != nil {
			size = rel.Size(i)
		}
		if err == nil && size == 0 {
			s.k.Reply(w.req, nil)
			continue
		}
		wb, b := vkernel.NewWire(msg.BytesNSize(len(text)) + size)
		b.Str(text)
		if size > 0 {
			rel.Put(i, &b)
		}
		wb.B = b.Bytes()
		s.k.ReplyOwned(w.req, wb)
	}
	if rel != nil {
		rel.Done()
	}
	var herr error
	if err != nil {
		herr = fmt.Errorf("at its home, node %d: %w", s.k.Node(), err)
	}
	for _, w := range waiters {
		if w.wake != nil {
			w.wake <- herr
		}
	}
}

// decodeRelease splits a release into the participant's body and the
// home's error text ("" for none); ok is false if it does not decode.
func decodeRelease(p []byte) (body []byte, text string, ok bool) {
	if len(p) == 0 {
		return nil, "", true
	}
	r := msg.NewReader(p)
	text = r.Str()
	body = r.Rest()
	return body, text, r.Err() == nil
}

// purgeArrivals drops every arrival peer has parked at this node's
// barriers and returns how many it dropped.
func (s *Service) purgeArrivals(peer msg.NodeID) int64 {
	s.mu.Lock()
	bars := make([]*barrierState, 0, len(s.barriers))
	for _, b := range s.barriers {
		bars = append(bars, b)
	}
	s.mu.Unlock()
	purged := int64(0)
	for _, b := range bars {
		b.mu.Lock()
		kept := b.arrived[:0]
		for _, w := range b.arrived {
			if w.req != nil && w.From == peer {
				purged++
				continue
			}
			kept = append(kept, w)
		}
		clear(b.arrived[len(kept):])
		b.arrived = kept
		if len(kept) == 0 {
			b.n = 0
		}
		b.mu.Unlock()
	}
	return purged
}

// ---------------------------------------------------------------------
// Atomic integers (paper §3.3.8: "more elaborate synchronization
// objects, such as monitors and atomic integers, are built on top").
// Each atomic lives at its home node; operations are single round trips.

// FetchAdd atomically adds delta to atomic id and returns the previous
// value.
func (s *Service) FetchAdd(id AtomicID, delta int64) int64 {
	lockrank.Blocking()
	payload := msg.NewBuilder(12).U32(uint32(id)).I64(delta).Bytes()
	home := cluster.HomeOf(uint64(id), s.nodes)
	reply, err := s.k.Call(home, kindFetchAdd, payload)
	if err != nil {
		panic(fmt.Sprintf("dlock: fetchadd %d: %v", id, err))
	}
	return msg.NewReader(reply.Payload).I64()
}

// AtomicLoad returns the current value of atomic id.
func (s *Service) AtomicLoad(id AtomicID) int64 {
	payload := msg.NewBuilder(4).U32(uint32(id)).Bytes()
	home := cluster.HomeOf(uint64(id), s.nodes)
	reply, err := s.k.Call(home, kindAtomLoad, payload)
	if err != nil {
		panic(fmt.Sprintf("dlock: atomic load %d: %v", id, err))
	}
	return msg.NewReader(reply.Payload).I64()
}

func (s *Service) atomicState(id AtomicID) *atomicState {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.atomics[id]
	if !ok {
		a = &atomicState{}
		s.atomics[id] = a
	}
	return a
}

func (s *Service) handleFetchAdd(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := AtomicID(r.U32())
	delta := r.I64()
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	a := s.atomicState(id)
	a.mu.Lock()
	old := a.v
	a.v += delta
	a.mu.Unlock()
	s.k.Reply(req, msg.NewBuilder(8).I64(old).Bytes())
	return vkernel.Replied
}

func (s *Service) handleAtomLoad(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := AtomicID(r.U32())
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	a := s.atomicState(id)
	a.mu.Lock()
	v := a.v
	a.mu.Unlock()
	s.k.Reply(req, msg.NewBuilder(8).I64(v).Bytes())
	return vkernel.Replied
}

// ---------------------------------------------------------------------
// Condition variables
//
// Wait must atomically (with respect to Signal) register the waiter
// before releasing the associated lock, or a wakeup between release and
// block would be lost. The two-phase protocol does exactly that:
//
//	ticket = Call(home, REG)        // registered; signals now find us
//	Release(lock)
//	Call(home, WAIT{ticket})        // blocks until a signal claims ticket
//	Acquire(lock)                   // Mesa semantics: re-contend
//
// A signal that arrives between REG and WAIT marks the ticket signaled;
// the WAIT call then returns immediately.

func (s *Service) condState(id CondID) *condState {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.conds[id]
	if !ok {
		c = &condState{waiters: make(map[uint64]*msg.Msg), signaled: make(map[uint64]bool)}
		s.conds[id] = c
	}
	return c
}

// CondWait releases lock and blocks the caller until cond is signaled,
// then reacquires lock before returning (Mesa monitor semantics). The
// caller must hold lock.
func (s *Service) CondWait(cond CondID, lock LockID) {
	home := cluster.HomeOf(uint64(cond), s.nodes)
	reg, err := s.k.Call(home, kindCondReg, msg.NewBuilder(4).U32(uint32(cond)).Bytes())
	if err != nil {
		panic(fmt.Sprintf("dlock: cond %d reg: %v", cond, err))
	}
	ticket := msg.NewReader(reg.Payload).U64()

	s.Release(lock)

	payload := msg.NewBuilder(12).U32(uint32(cond)).U64(ticket).Bytes()
	if _, err := s.k.Call(home, kindCondWait, payload); err != nil {
		panic(fmt.Sprintf("dlock: cond %d wait: %v", cond, err))
	}
	s.Acquire(lock)
}

// CondSignal wakes at most one waiter on cond.
func (s *Service) CondSignal(cond CondID) { s.condSignal(cond, false) }

// CondBroadcast wakes every current waiter on cond.
func (s *Service) CondBroadcast(cond CondID) { s.condSignal(cond, true) }

func (s *Service) condSignal(cond CondID, all bool) {
	home := cluster.HomeOf(uint64(cond), s.nodes)
	payload := msg.NewBuilder(5).U32(uint32(cond)).Bool(all).Bytes()
	if _, err := s.k.Call(home, kindCondSig, payload); err != nil {
		panic(fmt.Sprintf("dlock: cond %d signal: %v", cond, err))
	}
}

func (s *Service) handleCondReg(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := CondID(r.U32())
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	c := s.condState(id)
	c.mu.Lock()
	c.nextTkt++
	tkt := c.nextTkt
	c.waiters[tkt] = nil // registered, not yet blocked
	c.mu.Unlock()
	s.k.Reply(req, msg.NewBuilder(8).U64(tkt).Bytes())
	return vkernel.Replied
}

func (s *Service) handleCondWait(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := CondID(r.U32())
	tkt := r.U64()
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	c := s.condState(id)
	c.mu.Lock()
	if c.signaled[tkt] {
		delete(c.signaled, tkt)
		delete(c.waiters, tkt)
		c.mu.Unlock()
		s.k.Reply(req, nil)
		return vkernel.Replied
	}
	c.waiters[tkt] = req
	c.mu.Unlock()
	return vkernel.Parked
}

func (s *Service) handleCondSig(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := CondID(r.U32())
	all := r.Bool()
	if r.Err() != nil {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	c := s.condState(id)
	c.mu.Lock()
	var wake []*msg.Msg
	for tkt, blocked := range c.waiters {
		if blocked == nil {
			// Registered but not yet blocked: mark signaled so the
			// WAIT call returns immediately when it arrives.
			c.signaled[tkt] = true
			delete(c.waiters, tkt)
		} else {
			wake = append(wake, blocked)
			delete(c.waiters, tkt)
		}
		if !all {
			break
		}
	}
	c.mu.Unlock()
	for _, w := range wake {
		s.k.Reply(w, nil)
	}
	s.k.Reply(req, nil)
	return vkernel.Replied
}

// ---------------------------------------------------------------------
// Monitors (Mesa-style, as provided by Presto and named in §3.3.8).

// Monitor couples a lock with a condition variable to provide Mesa-style
// monitor semantics over the distributed lock service.
type Monitor struct {
	s    *Service
	lock LockID
	cond CondID
}

// NewMonitor creates a monitor view backed by this node's service. The
// (lock, cond) pair must be the same on every node using the monitor.
func (s *Service) NewMonitor(lock LockID, cond CondID) *Monitor {
	return &Monitor{s: s, lock: lock, cond: cond}
}

// Enter enters the monitor (acquires its lock).
func (m *Monitor) Enter() { m.s.Acquire(m.lock) }

// Exit leaves the monitor (releases its lock).
func (m *Monitor) Exit() { m.s.Release(m.lock) }

// Wait blocks on the monitor's condition, releasing and reacquiring the
// monitor lock around the wait (Mesa semantics: recheck the predicate).
func (m *Monitor) Wait() { m.s.CondWait(m.cond, m.lock) }

// Signal wakes one waiter.
func (m *Monitor) Signal() { m.s.CondSignal(m.cond) }

// Broadcast wakes all waiters.
func (m *Monitor) Broadcast() { m.s.CondBroadcast(m.cond) }
