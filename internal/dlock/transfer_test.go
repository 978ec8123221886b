package dlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/msg"
)

// record is the migratory object every transfer test attaches to its
// lock: 64 bytes, the size of the benchmark's sync record.
const record = 64

// attachRecords gives every node a 64-byte migratory copy of lock id,
// seeded at the home, and returns the copies, indexed by node. A node
// reads or writes its copy only while it holds the lock.
func attachRecords(svcs []*Service, id LockID) [][]byte {
	copies := make([][]byte, len(svcs))
	for i, s := range svcs {
		copies[i] = make([]byte, record)
		s.AttachMigratory(id,
			func(emit func([]byte)) { emit(copies[i]) },
			func(b []byte) { copy(copies[i], b) })
		s.SeedMigratory(id, make([]byte, record))
	}
	return copies
}

// waitMsgs waits until the cluster has sent n messages in all.
func waitMsgs(t *testing.T, c *cluster.Cluster, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Messages() < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the cluster sent %d messages, want %d", c.Stats().Messages(), n)
		}
	}
}

// TestLockTransferCounts pins what a lock transfer costs on the wire,
// shape by shape, with a 64-byte migratory record riding the lock. A
// transfer is the waiter's request to the home (24-byte header + 5-byte
// lock payload = 29 B), the home's forward to the node it last promised
// the lock to (24 + 4-byte waiter ID + 5 = 33 B) and that node's grant,
// sent straight to the waiter (24 + 5 + 1-byte length + 64 = 94 B):
// 3 messages, 156 B, whichever node is the home, because a node's
// message to itself rides the transport too. A naive release gives the
// lock back to the home (94 B) and waits for its ack (24 B).
func TestLockTransferCounts(t *testing.T) {
	cases := []struct {
		name        string
		nodes       int
		lock        LockID // homed on node lock % nodes (cluster.HomeOf)
		msgs, bytes int64
		run         func(t *testing.T, c *cluster.Cluster, svcs []*Service) (measure func())
	}{
		{
			// The benchmark's sync workload: the lock homed on a node
			// that takes no part.
			name: "the home idle", nodes: 3, lock: 2, msgs: 3, bytes: 29 + 33 + 94,
			run: func(t *testing.T, c *cluster.Cluster, svcs []*Service) func() {
				svcs[0].Acquire(2)
				svcs[0].Release(2)
				return func() { svcs[1].Acquire(2) }
			},
		},
		{
			name: "the home is the previous holder", nodes: 2, lock: 0, msgs: 3, bytes: 29 + 33 + 94,
			run: func(t *testing.T, c *cluster.Cluster, svcs []*Service) func() {
				svcs[0].Acquire(0)
				svcs[0].Release(0)
				return func() { svcs[1].Acquire(0) }
			},
		},
		{
			name: "the home requests", nodes: 2, lock: 0, msgs: 3, bytes: 29 + 33 + 94,
			run: func(t *testing.T, c *cluster.Cluster, svcs []*Service) func() {
				svcs[1].Acquire(0)
				svcs[1].Release(0)
				return func() { svcs[0].Acquire(0) }
			},
		},
		{
			// Node 0 holds; nodes 1, 2 and 3 ask in turn, each request
			// forwarded to the one before it; then node 0 lets go and
			// the lock runs down the chain in order.
			name: "three waiters chained behind one holder", nodes: 5, lock: 4, msgs: 9, bytes: 3 * (29 + 33 + 94),
			run: func(t *testing.T, c *cluster.Cluster, svcs []*Service) func() {
				svcs[0].Acquire(4)
				return func() {
					base := c.Stats().Messages()
					order := make(chan int, 3)
					var wg sync.WaitGroup
					for n := 1; n <= 3; n++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							svcs[n].Acquire(4)
							order <- n
							svcs[n].Release(4)
						}()
						// Its request and the home's forward are out
						// before the next waiter asks.
						waitMsgs(t, c, base+int64(2*n))
					}
					svcs[0].Release(4)
					wg.Wait()
					close(order)
					want := 1
					for n := range order {
						if n != want {
							t.Errorf("node %d took the lock in turn %d", n, want)
						}
						want++
					}
				}
			},
		},
		{
			// E8's baseline: a naive proxy keeps nothing, so each round
			// is a request and grant, then a hand-back and its ack.
			name: "naive mode", nodes: 2, lock: 0, msgs: 4, bytes: 29 + 94 + 94 + 24,
			run: func(t *testing.T, c *cluster.Cluster, svcs []*Service) func() {
				svcs[1].SetNaive(true)
				svcs[1].Acquire(0)
				svcs[1].Release(0)
				return func() {
					svcs[1].Acquire(0)
					svcs[1].Release(0)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, svcs := harness(t, tc.nodes)
			attachRecords(svcs, tc.lock)
			measure := tc.run(t, c, svcs)
			msgs, bytes := c.Stats().Messages(), c.Stats().Bytes()
			measure()
			if got := c.Stats().Messages() - msgs; got != tc.msgs {
				t.Errorf("the transfer sent %d messages, want %d", got, tc.msgs)
			}
			if got := c.Stats().Bytes() - bytes; got != tc.bytes {
				t.Errorf("the transfer sent %d bytes, want %d", got, tc.bytes)
			}
		})
	}
}

// TestNaiveReleaseCrossesAForward: a naive proxy hands every release
// back to the home, so it serves no forward. A waiter's request the
// home forwarded to it is dropped there (dlock.drop_forward), and the
// home grants the waiter itself, with the bytes the hand-back carried.
func TestNaiveReleaseCrossesAForward(t *testing.T) {
	c, svcs := harness(t, 3)
	const lock = LockID(0) // homed on node 0
	copies := attachRecords(svcs, lock)
	svcs[1].SetNaive(true)
	svcs[1].Acquire(lock)
	copies[1][0] = 42
	got := make(chan byte, 1)
	go func() {
		svcs[2].Acquire(lock)
		got <- copies[2][0]
		svcs[2].Release(lock)
	}()
	k1 := c.Kernel(1)
	for deadline := time.Now().Add(10 * time.Second); k1.C.Get("dlock.drop_forward") == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the naive holder never dropped the forward")
		}
	}
	svcs[1].Release(lock)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("the waiter read %d, want the naive holder's 42", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter was never granted the lock")
	}
	if n := k1.C.Get("dlock.drop_forward"); n != 1 {
		t.Fatalf("dlock.drop_forward = %d, want 1", n)
	}
}

// TestHolderCrashesWithParkedForward: a holder that dies with a
// waiter's forward parked takes the lock's bytes with it. When its
// successor rejoins, the home grants the waiter itself, without data,
// so the waiter does not hang.
func TestHolderCrashesWithParkedForward(t *testing.T) {
	c, svcs := harness(t, 3)
	const lock = LockID(0) // homed on node 0
	attachRecords(svcs, lock)
	svcs[1].Acquire(lock)
	base := c.Stats().Messages()
	done := make(chan struct{})
	go func() {
		svcs[2].Acquire(lock)
		svcs[2].Release(lock)
		close(done)
	}()
	waitMsgs(t, c, base+2) // the request and the forward to node 1
	c.Kernel(1).Close()
	svcs[0].PeerRecovered(1)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter forwarded to the crashed holder hangs")
	}
	if n := c.Kernel(0).C.Get("dlock.recover_owner"); n != 1 {
		t.Fatalf("dlock.recover_owner = %d, want 1", n)
	}
}

// TestWaiterCrashesBehindALiveHolder: a waiter whose node crashes while
// its request is forwarded to a live holder may or may not have been
// granted the lock; only the holder knows. When the crashed node's
// successor rejoins, the home asks the holder instead of taking the
// crashed waiter for the holder. While node 1 holds the lock, nobody
// else enters, and the next one to enter reads node 1's last write; a
// lock that did reach the crashed waiter is released.
func TestWaiterCrashesBehindALiveHolder(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		// granted: node 1 passes the lock to the waiter before it
		// crashes. behind: a waiter is forwarded on to the crashed one.
		granted, behind bool
	}{
		{name: "the crashed waiter is the tail", nodes: 3},
		{name: "a waiter is forwarded on to the crashed one", nodes: 4, behind: true},
		{name: "the crashed waiter had been granted", nodes: 3, granted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, svcs := harness(t, tc.nodes)
			const lock = LockID(0) // homed on node 0
			copies := attachRecords(svcs, lock)
			var holds atomic.Bool // node 1 is in the critical section
			svcs[1].Acquire(lock)
			holds.Store(true)
			copies[1][0] = 7
			go func() {
				defer func() { recover() }() // its node crashes under it
				svcs[2].Acquire(lock)
			}()
			waitParked(t, svcs[1], lock)
			if tc.behind {
				go func() {
					defer func() { recover() }() // its node closes with the test
					svcs[3].Acquire(lock)
					if holds.Load() {
						t.Error("node 3 entered while node 1 holds the lock")
					}
					svcs[3].Release(lock) // to node 0, with node 1's bytes
				}()
				waitParked(t, svcs[2], lock)
			}
			if tc.granted {
				holds.Store(false)
				svcs[1].Release(lock) // the grant goes to node 2
				for p := svcs[2].proxy(lock); ; time.Sleep(100 * time.Microsecond) {
					p.mu.Lock()
					owner := p.owner
					p.mu.Unlock()
					if owner {
						break
					}
				}
			}
			c.Kernel(2).Close()
			svcs[0].PeerRecovered(2)

			got := make(chan byte, 1)
			go func() {
				defer func() { recover() }() // a hung acquire fails when the test ends
				svcs[0].Acquire(lock)
				if holds.Load() {
					t.Error("node 0 entered while node 1 holds the lock")
				}
				got <- copies[0][0]
				svcs[0].Release(lock)
			}()
			if !tc.granted {
				// Node 0's request waits at the tail: node 3 if it
				// waits, else node 1.
				tail := 1
				if tc.behind {
					tail = 3
				}
				waitParked(t, svcs[tail], lock)
				holds.Store(false)
				svcs[1].Release(lock)
			}
			select {
			case v := <-got:
				// Unless the bytes died with the waiter, they reach
				// node 0, through node 3 if it waits.
				if !tc.granted && v != 7 {
					t.Fatalf("node 0 read %d, want node 1's 7", v)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the lock was lost with the crashed waiter")
			}
		})
	}
}

// TestRequestServedWhileTheHomeAsks: a request for the lock that the
// home serves while it asks the holder about a crashed waiter goes to
// the crashed waiter, still the tail, which drops it. The answer splices
// the crashed waiter out of the chain, so the request follows the
// holder, whose release hands the lock back for the home to grant it.
func TestRequestServedWhileTheHomeAsks(t *testing.T) {
	c, svcs := harness(t, 3)
	const lock = LockID(0) // homed on node 0
	copies := attachRecords(svcs, lock)
	svcs[1].Acquire(lock)
	copies[1][0] = 7
	// Node 2's request, as its proxy would send it.
	if _, err := c.Kernel(2).CallStart(0, kindAcquire, encodeLockPayload(uint32(lock), nil)); err != nil {
		t.Fatal(err)
	}
	waitParked(t, svcs[1], lock)
	c.Kernel(2).Close()

	// Node 1 answers the home's question only once the test lets go of
	// its proxy.
	p1 := svcs[1].proxy(lock)
	p1.mu.Lock()
	base := c.Stats().Messages()
	recovered := make(chan struct{})
	go func() {
		svcs[0].PeerRecovered(2)
		close(recovered)
	}()
	waitMsgs(t, c, base+1) // the question
	got := make(chan byte, 1)
	go func() {
		defer func() { recover() }() // a hung acquire fails when the test ends
		svcs[0].Acquire(lock)
		got <- copies[0][0]
		svcs[0].Release(lock)
	}()
	waitMsgs(t, c, base+3) // node 0's request and its forward to node 2
	p1.mu.Unlock()
	<-recovered
	svcs[1].Release(lock) // back to the home, which grants node 0
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("node 0 read %d, want node 1's 7", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the request served while the home asked hangs")
	}
}

// TestWithdrawnForwardIsDropped: a forward the home withdrew before it
// arrived — the home asked after its crashed waiter first — is not
// served when it does arrive (dlock.drop_forward), even by a node that
// owns the lock, and the lock goes back to the home at the next release.
func TestWithdrawnForwardIsDropped(t *testing.T) {
	c, svcs := harness(t, 2)
	const lock = LockID(1) // homed on node 1
	svcs[0].Acquire(lock)
	k1 := c.Kernel(1)
	reply, err := k1.Call(0, kindRevoke, msg.NewBuilder(16).U32(uint32(lock)).U32(1).U64(99).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Payload) != 1 || reply.Payload[0] != 0 {
		t.Fatalf("reply %v, want [0]: node 0 never granted the waiter", reply.Payload)
	}
	if err := k1.Forward(&msg.Msg{From: 1, Seq: 99}, 0, kindPass, encodeLockPayload(uint32(lock), nil)); err != nil {
		t.Fatal(err)
	}
	k0 := c.Kernel(0)
	for deadline := time.Now().Add(10 * time.Second); k0.C.Get("dlock.drop_forward") == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the withdrawn forward was never dropped")
		}
	}
	p := svcs[0].proxy(lock)
	p.mu.Lock()
	next := p.next
	p.mu.Unlock()
	if next != nil {
		t.Fatal("node 0 parked the withdrawn forward")
	}
	svcs[0].Release(lock) // hands the lock back
	svcs[1].Acquire(lock) // from the home, which holds it
	svcs[1].Release(lock)
}
