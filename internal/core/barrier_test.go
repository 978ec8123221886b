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

// roundShape sets up one TestCarriedBarrierRoundCounts case's objects
// on s, homed on home, and returns its round: round i's body for every
// thread, checking after the barrier what the participants read if
// check is set. after, if not nil, checks the round's effect from a Run
// of its own once the round has returned.
type roundShape func(t *testing.T, s *System, home msg.NodeID, bar dlock.BarrierID) (round func(i int, check bool) func(api.Ctx), after func(i int))

// TestCarriedBarrierRoundCounts pins the messages of one round of
// several barrier shapes, each round primed by a first one that is not
// counted.
//
// The flush shape: two participants on nodes 0 and 1, 64 write-many
// objects every participant holds a copy of and the barrier all homed
// on node 2, each participant writing its half. A participant alone on
// its node carries its 32 updates in its arrival, and its release
// brings back the other's 32 updates and its own sequence numbers: 2
// arrivals and 2 releases, 4 messages. A participant that shares its
// node flushes before it arrives: its diff batch to the home, the
// home's relay to the other participant's node, the relay's ack and the
// diff batch's ack, 4 messages, before its plain arrival. With a second
// thread on node 0 only node 0's participant does that, and the home's
// merge of node 1's carried updates relays them to node 0, acked, before
// the releases: 4 + 2 + 2 + 2 = 10. With a second thread on both nodes
// neither carries, and the round costs what every round did before
// barriers carried updates: 4 + 4 + 4 = 12.
//
// With the objects and the barrier homed on node 0, node 0's
// participant takes part like any other, but its arrival is no message.
// Alone on its node it carries its updates too, already in the home
// copies: node 1's arrival and its release, which brings back node 0's
// updates, are the whole round, 2. Beside a second thread on node 0 it
// merges its updates in place before it arrives, relaying them to node
// 1, acked: 2 + 2 = 4.
//
// Producer-consumer pushes ride the arrival too, all homed on node 0
// with the barrier:
//
//   - Life's shape, two solo producers each consuming the other's row:
//     node 1's push is applied at the home and node 0's rides node 1's
//     release, so the round is node 1's arrival and release, 2 (6 when
//     each push and its ack went before the arrival).
//   - A consumer on node 2, which has no participant: node 1's push
//     rides its arrival, the home applies it and sends node 2 the
//     acknowledged push before the release, 2 + 2 = 4 (5 when node 1
//     multicast it to the home and node 2, 1 + 2 acks, before its
//     arrival).
//   - Gauss's last step, a solo participant that carried nothing: node
//     0 writes a write-many object node 1 holds a copy of, and node 1's
//     release brings the update, 2 (4 when node 1's plain arrival left
//     it to an acknowledged relay).
func TestCarriedBarrierRoundCounts(t *testing.T) {
	byParity := func(id, _, _ int) msg.NodeID { return msg.NodeID(id % 2) }
	cases := []struct {
		name    string
		shape   roundShape
		home    msg.NodeID // of the barrier and the objects
		threads int
		place   threads.Placement
		want    int64
	}{
		{"alone on nodes 0 and 1", writeManyHalves, 2, 2, nil, 4},
		{"a second thread on node 0", writeManyHalves, 2, 3, byParity, 10},
		{"a second thread on both nodes", writeManyHalves, 2, 4, byParity, 12},
		{"the home's participant alone on its node", writeManyHalves, 0, 2, nil, 2},
		{"a second thread beside the home's participant", writeManyHalves, 0, 3, byParity, 4},
		{"two solo producers pushing to each other", producerPair, 0, 2, nil, 2},
		{"a consumer on a node with no participant", outsideConsumer, 0, 3, nil, 4},
		{"a solo participant that carried nothing", oneWriter, 0, 2, nil, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Nodes: 3, Placement: tc.place})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bar := barrierHomedOn(s, int(tc.home))
			round, after := tc.shape(t, s, tc.home, bar)
			for i := 0; i < 3; i++ {
				before := s.Messages()
				runWithin(t, s, tc.threads, round(i, i != 1))
				if got := s.Messages() - before; i == 1 && got != tc.want {
					t.Errorf("one round cost %d messages, want exactly %d", got, tc.want)
				}
				if after != nil {
					after(i)
				}
			}
		})
	}
}

// writeManyHalves is the flush shape: 64 write-many objects, threads 0
// and 1 each writing half of them, the others returning at once.
func writeManyHalves(t *testing.T, s *System, home msg.NodeID, bar dlock.BarrierID) (func(int, bool) func(api.Ctx), func(int)) {
	const objects = 64
	opts := protocol.DefaultOptions()
	opts.Home = home
	objs := make([]api.RegionID, objects)
	for o := range objs {
		objs[o] = s.Alloc(fmt.Sprintf("o%d", o), 1024, protocol.WriteMany, opts, nil)
	}
	return func(i int, check bool) func(c api.Ctx) {
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
	}, nil
}

// producerPair is Life's shape: threads 0 and 1 each produce one
// producer-consumer row the other consumes. The first round registers
// the consumers before anyone produces.
func producerPair(t *testing.T, s *System, home msg.NodeID, bar dlock.BarrierID) (func(int, bool) func(api.Ctx), func(int)) {
	opts := protocol.DefaultOptions()
	opts.Home = home
	rows := []api.RegionID{
		s.Alloc("row0", 64, protocol.ProducerConsumer, opts, nil),
		s.Alloc("row1", 64, protocol.ProducerConsumer, opts, nil),
	}
	return func(i int, check bool) func(c api.Ctx) {
		return func(c api.Ctx) {
			me := c.ThreadID()
			if i == 0 {
				api.ReadU64(c, rows[1-me], 0)
				c.Barrier(bar, 2)
			}
			api.WriteU64(c, rows[me], 0, uint64(i<<8|me+1))
			c.Barrier(bar, 2)
			if got, want := api.ReadU64(c, rows[1-me], 0), uint64(i<<8|2-me); check && got != want {
				t.Errorf("round %d: thread %d read %#x after the barrier, want %#x", i, me, got, want)
			}
		}
	}, nil
}

// outsideConsumer: thread 1 produces a producer-consumer row that only
// thread 2, on node 2, consumes; threads 0 and 1 meet at the barrier.
// Thread 2 registers in a first round all three meet in, then reads the
// row after each round from a Run of its own.
func outsideConsumer(t *testing.T, s *System, home msg.NodeID, bar dlock.BarrierID) (func(int, bool) func(api.Ctx), func(int)) {
	opts := protocol.DefaultOptions()
	opts.Home = home
	row := s.Alloc("row", 64, protocol.ProducerConsumer, opts, nil)
	round := func(i int, _ bool) func(c api.Ctx) {
		return func(c api.Ctx) {
			me := c.ThreadID()
			if i == 0 {
				if me == 2 {
					api.ReadU64(c, row, 0)
				}
				c.Barrier(bar, 3)
			}
			if me == 2 {
				return
			}
			if me == 1 {
				api.WriteU64(c, row, 0, uint64(i+1))
			}
			c.Barrier(bar, 2)
		}
	}
	after := func(i int) {
		runWithin(t, s, 3, func(c api.Ctx) {
			if c.ThreadID() != 2 {
				return
			}
			if got := api.ReadU64(c, row, 0); got != uint64(i+1) {
				t.Errorf("round %d: node 2 read %d after the round, want %d", i, got, i+1)
			}
		})
	}
	return round, after
}

// oneWriter is Gauss's last step: thread 0 writes a write-many object
// that thread 1 holds a copy of and does not write.
func oneWriter(t *testing.T, s *System, home msg.NodeID, bar dlock.BarrierID) (func(int, bool) func(api.Ctx), func(int)) {
	opts := protocol.DefaultOptions()
	opts.Home = home
	x := s.Alloc("x", 64, protocol.WriteMany, opts, nil)
	return func(i int, check bool) func(c api.Ctx) {
		return func(c api.Ctx) {
			me := c.ThreadID()
			if i == 0 {
				api.ReadU64(c, x, 0)
			}
			if me == 0 {
				api.WriteU64(c, x, 8*i, uint64(i+1))
			}
			c.Barrier(bar, 2)
			if got := api.ReadU64(c, x, 8*i); check && got != uint64(i+1) {
				t.Errorf("round %d: thread %d read %d after the barrier, want %d", i, me, got, i+1)
			}
		}
	}, nil
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

// TestConsumerRegisteredBesideParkedPush: node 1's solo producer
// carries its push of a row in its arrival at a barrier homed on node
// 0, with the row. While the arrival is parked, node 2 registers as the
// row's consumer: the home's copy does not hold the parked push yet, and
// the push's members, taken when it was stamped, do not name node 2. The
// registration therefore starts node 2 from the producer's own copy and
// sequence number, taken when the producer learned of node 2, so node 2
// reads the parked push's value at once. It reads each later round's
// value after that round, whether or not it takes part in the barrier;
// a node 2 that takes part and started from the home's copy would read
// the row from before the barrier after it.
func TestConsumerRegisteredBesideParkedPush(t *testing.T) {
	for _, participant := range []bool{false, true} {
		name := "on a node with no participant"
		parties := 2
		if participant {
			name, parties = "that takes part in the barrier", 3
		}
		t.Run(name, func(t *testing.T) {
			s := newSys(t, 3)
			bar := barrierHomedOn(s, 0)
			opts := protocol.DefaultOptions()
			opts.Home = 0
			row := s.Alloc("row", 64, protocol.ProducerConsumer, opts, nil)
			registered := make(chan struct{}) // node 2 registered during round 1
			passed := make(chan struct{})     // the producer passed round 2
			runWithin(t, s, 3, func(c api.Ctx) {
				switch c.ThreadID() {
				case 0:
					// Arrive only once node 2 registered beside the parked push.
					<-registered
					c.Barrier(bar, parties)
					c.Barrier(bar, parties)
				case 1:
					api.WriteU64(c, row, 0, 1)
					c.Barrier(bar, parties)
					api.WriteU64(c, row, 0, 2)
					c.Barrier(bar, parties)
					close(passed)
				case 2:
					for deadline := time.Now().Add(10 * time.Second); s.LockService(0).BarrierArrived(bar) != 1; time.Sleep(100 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Error("the producer's arrival never parked")
							break
						}
					}
					if got := api.ReadU64(c, row, 0); got != 1 {
						t.Errorf("node 2 read %d while the push was parked, want the producer's 1", got)
					}
					close(registered)
					if participant {
						c.Barrier(bar, parties)
						if got := api.ReadU64(c, row, 0); got != 1 {
							t.Errorf("node 2 read %d after the barrier, want 1", got)
						}
						c.Barrier(bar, parties)
					}
					<-passed
					if got := api.ReadU64(c, row, 0); got != 2 {
						t.Errorf("node 2 read %d after the next round, want 2", got)
					}
				}
			})
		})
	}
}
