package core

import (
	"fmt"
	"testing"
	"time"

	"munin/internal/api"
	"munin/internal/dlock"
	"munin/internal/msg"
	"munin/internal/protocol"
	"munin/internal/threads"
)

// barrierHomedOn allocates barriers until one is homed on node.
func barrierHomedOn(s *System, node int) dlock.BarrierID {
	for {
		if b := s.NewBarrier(); int(s.locks[0].BarrierHome(b)) == node {
			return b
		}
	}
}

// runWithin runs body as an SPMD Run of nthreads threads and fails the
// test if the Run has not returned within a generous bound: a barrier
// that deadlocks fails here instead of at the test binary's timeout.
func runWithin(t *testing.T, s *System, nthreads int, body func(c api.Ctx)) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.Run(nthreads, body)
	}()
	select {
	case r := <-done:
		if r != nil {
			t.Fatal(r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: the barrier deadlocked")
	}
}

// TestCarriedBarrierRoundCounts pins the messages of one round of the
// flush shape: two participants on nodes 0 and 1, 64 write-many objects
// every participant holds a copy of and the barrier all homed on node
// 2, each participant writing its half. A participant alone on its
// node carries its 32 updates in its arrival, and its release brings
// back the other's 32 updates and its own sequence numbers: 2 arrivals
// and 2 releases, 4 messages. A participant that shares its node
// flushes before it arrives: its diff batch to the home, the home's
// relay to the other participant's node, the relay's ack and the diff
// batch's ack, 4 messages, before its plain arrival. With a second
// thread on node 0 only node 0's participant does that, and the home's
// merge of node 1's carried updates relays them to node 0, acked, before
// the releases: 4 + 2 + 2 + 2 = 10. With a second thread on both nodes
// neither carries, and the round costs what every round did before
// barriers carried updates: 4 + 4 + 4 = 12.
//
// With the barrier and the objects homed on node 0, node 0's
// participant takes part like any other, but its arrival is no message.
// Alone on its node it carries its updates too, already in the home
// copies: node 1's arrival and its release, which brings back node 0's
// updates, are the whole round, 2. Beside a second thread on node 0 it
// merges its updates in place before it arrives, relaying them to node
// 1, acked: 2 + 2 = 4.
func TestCarriedBarrierRoundCounts(t *testing.T) {
	byParity := func(id, _, _ int) msg.NodeID { return msg.NodeID(id % 2) }
	cases := []struct {
		name    string
		home    msg.NodeID // of the barrier and the objects
		threads int
		place   threads.Placement
		want    int64
	}{
		{"alone on nodes 0 and 1", 2, 2, nil, 4},
		{"a second thread on node 0", 2, 3, byParity, 10},
		{"a second thread on both nodes", 2, 4, byParity, 12},
		{"the home's participant alone on its node", 0, 2, nil, 2},
		{"a second thread beside the home's participant", 0, 3, byParity, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Nodes: 3, Placement: tc.place})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const objects = 64
			bar := barrierHomedOn(s, int(tc.home))
			opts := protocol.DefaultOptions()
			opts.Home = tc.home
			objs := make([]api.RegionID, objects)
			for o := range objs {
				objs[o] = s.Alloc(fmt.Sprintf("o%d", o), 1024, protocol.WriteMany, opts, nil)
			}
			// round writes the participants' halves; only threads 0 and 1
			// take part, the others return at once.
			round := func(i int, check bool) func(c api.Ctx) {
				return func(c api.Ctx) {
					me := c.ThreadID()
					if me > 1 {
						return
					}
					if i == 0 {
						for _, r := range objs {
							api.ReadU64(c, r, 0)
						}
					}
					for o := me; o < objects; o += 2 {
						for j := 0; j < 8; j++ {
							api.WriteU64(c, objs[o], (i*8+j)*8, uint64(i<<16|o<<8|j+1))
						}
					}
					c.Barrier(bar, 2)
					if !check {
						return
					}
					for o := 1 - me; o < objects; o += 2 {
						for j := 0; j < 8; j++ {
							if got, want := api.ReadU64(c, objs[o], (i*8+j)*8), uint64(i<<16|o<<8|j+1); got != want {
								t.Errorf("thread %d: object %d word %d = %#x after the barrier, want %#x", me, o, i*8+j, got, want)
							}
						}
					}
				}
			}
			runWithin(t, s, tc.threads, round(0, true)) // prime the copies
			before := s.Messages()
			runWithin(t, s, tc.threads, round(1, false))
			if got := s.Messages() - before; got != tc.want {
				t.Errorf("one round cost %d messages, want exactly %d", got, tc.want)
			}
			runWithin(t, s, tc.threads, round(2, true))
		})
	}
}

// TestNonParticipantBesideParkedParticipant: a thread that is not in the
// barrier shares node 0 with a participant, so that participant flushes
// before it arrives, while node 1's participant, alone on its node,
// carries its update of the same object in its arrival and parks.
// Meanwhile the non-participant writes that object under a lock. It
// must not wait behind the parked barrier, the participant that takes
// the lock after the barrier must read its word, and when it takes the
// lock back it must read the word node 1's participant carried.
func TestNonParticipantBesideParkedParticipant(t *testing.T) {
	s, err := New(Config{Nodes: 3, Placement: func(id, _, _ int) msg.NodeID { return msg.NodeID(id % 2) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bar := barrierHomedOn(s, 2)
	lock := s.NewLock()
	opts := protocol.DefaultOptions()
	opts.Home = 2
	x := s.Alloc("x", 64, protocol.WriteMany, opts, nil)
	const (
		wordA = 0  // node 1's participant, before the barrier
		wordB = 8  // node 0's participant, before the barrier
		wordC = 16 // the non-participant, under the lock
	)
	parked := make(chan struct{})  // thread 1 is about to arrive
	written := make(chan struct{}) // thread 2 released the lock
	passed := make(chan struct{})  // thread 1 took and gave back the lock after the barrier
	runWithin(t, s, 3, func(c api.Ctx) {
		api.ReadU64(c, x, 0) // prime
		switch c.ThreadID() {
		case 0: // node 0, a participant that shares its node
			<-written
			api.WriteU64(c, x, wordB, 0xB)
			c.Barrier(bar, 2)
			if got := api.ReadU64(c, x, wordA); got != 0xA {
				t.Errorf("node 0's participant read word A = %#x after the barrier, want 0xA", got)
			}
		case 1: // node 1, alone: carries its update
			api.WriteU64(c, x, wordA, 0xA)
			close(parked)
			c.Barrier(bar, 2)
			c.Acquire(lock)
			if got := api.ReadU64(c, x, wordB); got != 0xB {
				t.Errorf("node 1's participant read word B = %#x after the barrier, want 0xB", got)
			}
			if got := api.ReadU64(c, x, wordC); got != 0xC {
				t.Errorf("node 1's participant read word C = %#x under the lock, want 0xC", got)
			}
			c.Release(lock)
			close(passed)
		case 2: // node 0, not in the barrier
			<-parked
			// Node 1's participant counts its carried update just before
			// its arrival leaves.
			for deadline := time.Now().Add(10 * time.Second); s.NodeCounters(1)["barrier.carried"] == 0; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Error("node 1's participant never carried its update")
					break
				}
			}
			c.Acquire(lock)
			api.WriteU64(c, x, wordC, 0xC)
			c.Release(lock)
			close(written)
			<-passed
			c.Acquire(lock)
			if got := api.ReadU64(c, x, wordA); got != 0xA {
				t.Errorf("the non-participant read word A = %#x under the lock, want 0xA", got)
			}
			c.Release(lock)
		}
	})
	if got := s.NodeCounters(1)["barrier.carried"]; got != 1 {
		t.Errorf("node 1's participant carried %d updates, want 1", got)
	}
	if got := s.NodeCounters(0)["barrier.carried"]; got != 0 {
		t.Errorf("node 0's participant carried %d updates, want 0: it shares its node", got)
	}
}

// TestCarriedUpdatesOfOneObjectConverge: three threads, one a node,
// each write their own word of every object each round and meet at a
// barrier homed on node 2. Every thread carries its updates of the
// objects homed on node 2 — node 2's are already in its home copies —
// so the home stamps three updates of each such object in one merge and
// each release must apply the others' before advancing past its own;
// the objects homed on node 0 take the ordinary flush. After every
// barrier every thread reads every word of the round.
func TestCarriedUpdatesOfOneObjectConverge(t *testing.T) {
	s := newSys(t, 3)
	bar := barrierHomedOn(s, 2)
	var objs []api.RegionID
	for o := 0; o < 8; o++ {
		opts := protocol.DefaultOptions()
		opts.Home = msg.NodeID(2 * (o % 2)) // nodes 2 and 0 in turn
		annot := protocol.WriteMany
		if o == 7 {
			annot = protocol.Result
		}
		objs = append(objs, s.Alloc(fmt.Sprintf("o%d", o), 64, annot, opts, nil))
	}
	const rounds = 20
	runWithin(t, s, 3, func(c api.Ctx) {
		me := c.ThreadID()
		for i := 1; i <= rounds; i++ {
			for o, r := range objs {
				api.WriteU64(c, r, me*8, uint64(i<<16|o<<8|me))
			}
			c.Barrier(bar, 3)
			for o, r := range objs[:7] {
				for w := 0; w < 3; w++ {
					if got, want := api.ReadU64(c, r, w*8), uint64(i<<16|o<<8|w); got != want {
						t.Errorf("round %d: thread %d read object %d word %d = %#x, want %#x", i, me, o, w, got, want)
					}
				}
			}
			c.Barrier(bar, 3)
		}
	})
	// The result object is read back from its collector after the Run.
	runWithin(t, s, 1, func(c api.Ctx) {
		for w := 0; w < 3; w++ {
			if got, want := api.ReadU64(c, objs[7], w*8), uint64(rounds<<16|7<<8|w); got != want {
				t.Errorf("result object word %d = %#x, want %#x", w, got, want)
			}
		}
	})
	for node := 0; node < 3; node++ {
		if s.NodeCounters(node)["barrier.carried"] == 0 {
			t.Errorf("node %d carried nothing", node)
		}
	}
}
