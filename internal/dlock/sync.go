package dlock

import (
	"fmt"

	"munin/internal/cluster"
	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/vkernel"
)

// ---------------------------------------------------------------------
// Barriers
//
// A barrier is homed on one node; arrivals are Calls that the home holds
// open until the last participant arrives, then all replies are released
// at once. A generation counter is unnecessary because a participant
// cannot re-arrive before its own release reply, and replies are sent
// before the next epoch's state is created.

// BarrierWait blocks until n participants (including the caller) have
// arrived at barrier id.
func (s *Service) BarrierWait(id BarrierID, n int) {
	lockrank.Blocking()
	if n <= 0 {
		panic("dlock: barrier needs n >= 1")
	}
	if n == 1 {
		return
	}
	payload := msg.NewBuilder(12).U32(uint32(id)).Int(n).Bytes()
	home := cluster.HomeOf(uint64(id), s.nodes)
	if _, err := s.k.Call(home, kindBarrier, payload); err != nil {
		panic(fmt.Sprintf("dlock: barrier %d: %v", id, err))
	}
}

func (s *Service) handleBarrier(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := BarrierID(r.U32())
	n := r.Int()
	if r.Err() != nil {
		s.k.C.Add(stats.CDlockDropMalformed, 1)
		return vkernel.Dropped
	}
	s.mu.Lock()
	b, ok := s.barriers[id]
	if !ok {
		b = &barrierState{}
		s.barriers[id] = b
	}
	s.mu.Unlock()

	b.mu.Lock()
	b.arrived = append(b.arrived, req)
	if len(b.arrived) < n {
		b.mu.Unlock()
		return vkernel.Parked
	}
	waiters := b.arrived
	b.arrived = nil
	b.mu.Unlock()
	for _, w := range waiters {
		s.k.Reply(w, nil)
	}
	return vkernel.Replied
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
		s.k.C.Add(stats.CDlockDropMalformed, 1)
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
		s.k.C.Add(stats.CDlockDropMalformed, 1)
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
		s.k.C.Add(stats.CDlockDropMalformed, 1)
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
		s.k.C.Add(stats.CDlockDropMalformed, 1)
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
		s.k.C.Add(stats.CDlockDropMalformed, 1)
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
