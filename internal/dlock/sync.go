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
// An arrival is the barrier's ID and participant count (12 bytes),
// followed by what it carries: updates the participant publishes at the
// barrier (BarrierCarry), opaque here. The home checks a carried part as
// it arrives and merges every carried part once, at the last arrival,
// through the hooks the coherence layer attached (AttachBarrier); each
// release then carries that participant's part of the merge. A release
// on the wire is empty when it carries nothing and the merge met no
// error; otherwise it is the error's text (a length-prefixed string,
// empty for none) followed by the participant's part.

// barrierHeader is the size of an arrival that carries nothing: the
// barrier's ID (U32) and participant count (Int).
const barrierHeader = 12

// Arrival is one participant's arrival at a barrier's home.
type Arrival struct {
	From msg.NodeID
	// Carried is the arrival past its header: the updates it carries,
	// empty when it carries none. The home keeps it until the release.
	Carried []byte
}

// AttachBarrier registers the coherence layer's barrier hooks on this
// node. check is called on each arrival that carries something, as it
// arrives; false drops the arrival as malformed (dlock.drop_malformed),
// and it does not count. merge is called once an epoch, when the last
// participant arrives and at least one arrival carries something, with
// every arrival in arrival order and no dlock mutex held. It returns
// one release body per arrival (nil for none) and the error, if any,
// the home met publishing the updates; every participant's release
// reports that error.
func (s *Service) AttachBarrier(check func(Arrival) bool, merge func([]Arrival) ([][]byte, error)) {
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
// arrival fails or the home reports an error.
func (s *Service) BarrierWait(id BarrierID, n int) {
	lockrank.Blocking()
	if _, err := s.BarrierCarry(id, n, 0, nil); err != nil {
		panic(fmt.Sprintf("dlock: barrier %d: %v", id, err))
	}
}

// BarrierCarry is BarrierWait for an arrival that carries updates:
// carry writes the size bytes of the carried part behind the header
// (size 0 sends the plain 12-byte arrival, and carry is not called). It
// returns the release's body — this participant's part of the home's
// merge — and the error the arrival failed with or the home reported;
// the body is returned with the home's error too, because the merge
// happened. An arrival at a barrier homed on this node sends nothing:
// it fails only if it is malformed or the kernel closes while it waits.
// A one-party barrier sends nothing either, so the caller must not hand
// it a carried part.
func (s *Service) BarrierCarry(id BarrierID, n, size int, carry func(b *msg.Builder)) ([]byte, error) {
	lockrank.Blocking()
	if n <= 0 {
		panic("dlock: barrier needs n >= 1")
	}
	if n == 1 {
		if size > 0 {
			panic("dlock: a one-party barrier carries nothing")
		}
		return nil, nil
	}
	home := s.BarrierHome(id)
	if home == s.k.Node() {
		return s.waitHere(id, n, size, carry)
	}
	wb, b := vkernel.NewWire(barrierHeader + size)
	b.U32(uint32(id)).Int(n)
	if size > 0 {
		carry(&b)
	}
	wb.B = b.Bytes()
	p, err := s.k.CallStartOwned(home, kindBarrier, wb)
	if err != nil {
		return nil, err
	}
	if size > 0 && failpoint.Armed(failpoint.BarrierCarried) {
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

// waitHere is BarrierCarry's arrival at a barrier homed on this node:
// it enters the barrier's state as any arrival does and waits for its
// release, or for the kernel to close.
func (s *Service) waitHere(id BarrierID, n, size int, carry func(b *msg.Builder)) ([]byte, error) {
	a := arrival{Arrival: Arrival{From: s.k.Node()}, wake: make(chan released, 1)}
	if size > 0 {
		b := msg.NewBuilder(size)
		carry(b)
		a.Carried = b.Bytes()
	}
	if ok, _ := s.arrive(id, n, a); !ok {
		return nil, fmt.Errorf("barrier %d: this node's own arrival was dropped as malformed", id)
	}
	select {
	case r := <-a.wake:
		return r.body, r.err
	case <-s.k.Done():
		return nil, s.k.Err()
	}
}

func (s *Service) handleBarrier(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := BarrierID(r.U32())
	n := r.Int()
	// A count below one would release every parked waiter at once.
	if r.Err() != nil || n <= 0 {
		s.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	ok, last := s.arrive(id, n, arrival{Arrival: Arrival{From: req.From, Carried: req.Payload[barrierHeader:]}, req: req})
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
func (s *Service) release(waiters []arrival, merge func([]Arrival) ([][]byte, error)) {
	var bodies [][]byte
	var err error
	if merge != nil && slices.ContainsFunc(waiters, func(w arrival) bool { return len(w.Carried) > 0 }) {
		arrivals := make([]Arrival, len(waiters))
		for i, w := range waiters {
			arrivals[i] = w.Arrival
		}
		bodies, err = merge(arrivals)
	}
	body := func(i int) []byte {
		if i < len(bodies) {
			return bodies[i]
		}
		return nil
	}
	// Every remote participant's reply is queued before any local
	// participant wakes: a local participant may end its Run at once,
	// and the goodbye its Close sends queues behind what is already sent.
	for i, w := range waiters {
		if w.req == nil {
			continue
		}
		if err == nil && len(body(i)) == 0 {
			s.k.Reply(w.req, nil)
			continue
		}
		text := ""
		if err != nil {
			text = err.Error()
		}
		wb, b := vkernel.NewWire(msg.BytesNSize(len(text)) + len(body(i)))
		b.Str(text).Raw(body(i))
		wb.B = b.Bytes()
		s.k.ReplyOwned(w.req, wb)
	}
	var herr error
	if err != nil {
		herr = fmt.Errorf("at its home, node %d: %w", s.k.Node(), err)
	}
	for i, w := range waiters {
		if w.wake != nil {
			w.wake <- released{body: body(i), err: herr}
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
