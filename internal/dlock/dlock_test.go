package dlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/msg"
	"munin/internal/vkernel"
)

// harness builds an n-node cluster with a lock service on every node.
func harness(t *testing.T, n int) (*cluster.Cluster, []*Service) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	svcs := make([]*Service, n)
	for i := 0; i < n; i++ {
		svcs[i] = NewService(c.Kernel(msg.NodeID(i)))
	}
	t.Cleanup(c.Close)
	return c, svcs
}

func TestAcquireReleaseSingleNode(t *testing.T) {
	_, svcs := harness(t, 1)
	svcs[0].Acquire(1)
	svcs[0].Release(1)
	svcs[0].Acquire(1)
	svcs[0].Release(1)
}

func TestMutualExclusionAcrossNodes(t *testing.T) {
	_, svcs := harness(t, 4)
	const lock = LockID(5)
	var inCS atomic.Int32
	var violations atomic.Int32
	var total atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func(s *Service) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					s.Acquire(lock)
					if inCS.Add(1) != 1 {
						violations.Add(1)
					}
					total.Add(1)
					inCS.Add(-1)
					s.Release(lock)
				}
			}(svcs[n])
		}
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual exclusion violations", violations.Load())
	}
	if total.Load() != 4*2*50 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestProxyLocalReacquisitionCostsNothing(t *testing.T) {
	c, svcs := harness(t, 2)
	const lock = LockID(0) // homed on node 0
	// Node 1 acquires once (remote), then re-acquires many times.
	svcs[1].Acquire(lock)
	svcs[1].Release(lock)
	before := c.Stats().Messages()
	for i := 0; i < 100; i++ {
		svcs[1].Acquire(lock)
		svcs[1].Release(lock)
	}
	if got := c.Stats().Messages(); got != before {
		t.Fatalf("local reacquisition sent %d messages, want 0", got-before)
	}
	if svcs[1].LocalAcquires() != 100 {
		t.Fatalf("localAcquires = %d, want 100", svcs[1].LocalAcquires())
	}
	if svcs[1].RemoteAcquires() != 1 {
		t.Fatalf("remoteAcquires = %d, want 1", svcs[1].RemoteAcquires())
	}
}

func TestNaiveModeAlwaysSurrenders(t *testing.T) {
	c, svcs := harness(t, 2)
	const lock = LockID(0)
	svcs[1].SetNaive(true)
	svcs[1].Acquire(lock)
	svcs[1].Release(lock)
	before := c.Stats().Messages()
	svcs[1].Acquire(lock)
	svcs[1].Release(lock)
	if got := c.Stats().Messages() - before; got == 0 {
		t.Fatal("naive mode sent no messages on reacquisition")
	}
}

func TestOwnershipTransfersOnContention(t *testing.T) {
	_, svcs := harness(t, 3)
	const lock = LockID(7)
	order := make(chan int, 3)
	var wg sync.WaitGroup
	svcs[0].Acquire(lock)
	for n := 1; n < 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			svcs[n].Acquire(lock)
			order <- n
			svcs[n].Release(lock)
		}(n)
	}
	time.Sleep(50 * time.Millisecond) // let both queue at home
	order <- 0
	svcs[0].Release(lock)
	wg.Wait()
	close(order)
	var got []int
	for n := range order {
		got = append(got, n)
	}
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("order = %v", got)
	}
}

func TestMigratoryDataTravelsWithLock(t *testing.T) {
	_, svcs := harness(t, 3)
	const lock = LockID(2) // homed on node 2
	// Each node keeps a local "copy" of a counter; the authoritative
	// bytes ride with the lock.
	locals := make([][]byte, 3)
	for i := range locals {
		locals[i] = []byte{0}
		i := i
		svcs[i].AttachMigratory(lock,
			func(emit func([]byte)) { emit(locals[i]) },
			func(b []byte) { locals[i] = append([]byte(nil), b...) })
	}
	svcs[2].SeedMigratory(lock, []byte{10}) // the home seeds itself
	// Ring: each node increments the value 5 times.
	for round := 0; round < 5; round++ {
		for n := 0; n < 3; n++ {
			svcs[n].Acquire(lock)
			locals[n][0]++
			svcs[n].Release(lock)
		}
	}
	svcs[1].Acquire(lock)
	if locals[1][0] != 10+15 {
		t.Fatalf("migratory value = %d, want 25", locals[1][0])
	}
	svcs[1].Release(lock)
}

func TestSeedMigratoryAtHomeItself(t *testing.T) {
	_, svcs := harness(t, 2)
	const lock = LockID(0) // home = node 0
	var got []byte
	svcs[1].AttachMigratory(lock, func(emit func([]byte)) { emit(got) },
		func(b []byte) { got = append([]byte(nil), b...) })
	svcs[0].SeedMigratory(lock, []byte("seeded"))
	svcs[1].Acquire(lock)
	if string(got) != "seeded" {
		t.Fatalf("got %q", got)
	}
	svcs[1].Release(lock)
}

// Every node installs a migratory object, so every node seeds its lock:
// only the home's seed stores, and no other node's reaches it.
func TestSeedMigratoryOffHomeStoresNothing(t *testing.T) {
	c, svcs := harness(t, 2)
	const lock = LockID(0) // home = node 0
	var got []byte
	svcs[1].AttachMigratory(lock, func(emit func([]byte)) { emit(got) },
		func(b []byte) { got = append([]byte(nil), b...) })
	svcs[0].SeedMigratory(lock, []byte("home"))
	svcs[1].SeedMigratory(lock, []byte("other"))
	if m := c.Stats().Messages(); m != 0 {
		t.Fatalf("seeding sent %d messages, want none", m)
	}
	svcs[1].Acquire(lock)
	if string(got) != "home" {
		t.Fatalf("got %q, want the home's seed", got)
	}
	svcs[1].Release(lock)
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	_, svcs := harness(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	svcs[0].Release(3)
}

// TestFailedAcquireLeavesTheProxyUsable: an ACQUIRE whose call fails
// panics, and a caller that recovers the panic can call Acquire on the
// same lock again, which fails the same way instead of blocking on a
// proxy the first failure left locked.
func TestFailedAcquireLeavesTheProxyUsable(t *testing.T) {
	c, svcs := harness(t, 2)
	const lock = LockID(0) // homed on node 0
	c.Close()
	acquire := func() (failed bool) {
		defer func() { failed = recover() != nil }()
		svcs[1].Acquire(lock)
		return false
	}
	if !acquire() {
		t.Fatal("an acquire through a closed cluster did not fail")
	}
	done := make(chan bool, 1)
	go func() { done <- acquire() }()
	select {
	case failed := <-done:
		if !failed {
			t.Fatal("the second acquire through a closed cluster did not fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second acquire blocked on the proxy the first failure left locked")
	}
}

func TestBarrier(t *testing.T) {
	_, svcs := harness(t, 4)
	var phase atomic.Int32
	var wrong atomic.Int32
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(s *Service) {
			defer wg.Done()
			phase.Add(1)
			s.BarrierWait(9, 4)
			// After the barrier, all 4 must have incremented.
			if phase.Load() != 4 {
				wrong.Add(1)
			}
		}(svcs[n])
	}
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d threads passed the barrier early", wrong.Load())
	}
}

func TestBarrierReusableAcrossEpochs(t *testing.T) {
	_, svcs := harness(t, 2)
	var counter atomic.Int64
	var bad atomic.Int32
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func(s *Service) {
			defer wg.Done()
			for epoch := int64(1); epoch <= 10; epoch++ {
				counter.Add(1)
				s.BarrierWait(1, 2)
				if counter.Load() != 2*epoch {
					bad.Add(1)
				}
				s.BarrierWait(2, 2) // second barrier prevents epoch overlap
			}
		}(svcs[n])
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d epoch violations", bad.Load())
	}
}

// TestBarrierRepliesRemoteFirst: the home's own participant arrives
// first, parking in the barrier's state without a message, yet when its
// release is handed to it every remote participant's release has been
// queued: the home's messages when it wakes are all the home sends in
// the round. A home participant woken first could end its Run and say
// goodbye before the other replies were queued, and they would be lost.
func TestBarrierRepliesRemoteFirst(t *testing.T) {
	const id, parties, rounds = BarrierID(3), 3, 50
	c, svcs := harness(t, parties)
	h := svcs[0].BarrierHome(id)
	for r := 0; r < rounds; r++ {
		base := c.Stats().NodeSent(h)
		var atWake int64
		homeDone := make(chan struct{})
		go func() {
			svcs[h].BarrierWait(id, parties)
			atWake = c.Stats().NodeSent(h) - base
			close(homeDone)
		}()
		for svcs[h].BarrierArrived(id) == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		var wg sync.WaitGroup
		for n := range svcs {
			if msg.NodeID(n) == h {
				continue
			}
			wg.Add(1)
			go func(s *Service) {
				defer wg.Done()
				s.BarrierWait(id, parties)
			}(svcs[n])
		}
		wg.Wait()
		<-homeDone
		if total := c.Stats().NodeSent(h) - base; atWake != total {
			t.Fatalf("round %d: the home's participant woke with %d of the home's %d messages sent", r, atWake, total)
		}
	}
}

// TestBarrierLocalWaiterFailsOnClose: a participant at a barrier homed
// on its own node arrives without a message and waits on no call, so no
// peer's death or departure can fail it. When its node closes it must
// return the kernel's close error, not hang.
func TestBarrierLocalWaiterFailsOnClose(t *testing.T) {
	const id = BarrierID(3)
	c, svcs := harness(t, 2)
	h := svcs[0].BarrierHome(id)
	got := make(chan error, 1)
	go func() {
		_, err := svcs[h].BarrierCarry(id, 2, Carry{})
		got <- err
	}()
	for svcs[h].BarrierArrived(id) == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	if n := c.Stats().Messages(); n != 0 {
		t.Fatalf("the home's own arrival sent %d messages, want 0", n)
	}
	c.Kernel(h).Close()
	select {
	case err := <-got:
		if !vkernel.IsClosed(err) {
			t.Fatalf("the parked participant returned %v, want the kernel's close error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked participant did not return within 5 s of its node closing")
	}
}

func TestBarrierSingleParticipantIsFree(t *testing.T) {
	c, svcs := harness(t, 2)
	before := c.Stats().Messages()
	svcs[0].BarrierWait(5, 1)
	if c.Stats().Messages() != before {
		t.Fatal("1-party barrier sent messages")
	}
}

func TestFetchAddLinearizes(t *testing.T) {
	_, svcs := harness(t, 4)
	const id = AtomicID(3)
	seen := make([]atomic.Bool, 4*25)
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(s *Service) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				old := s.FetchAdd(id, 1)
				if old < 0 || old >= int64(len(seen)) || seen[old].Swap(true) {
					t.Errorf("duplicate or out-of-range ticket %d", old)
					return
				}
			}
		}(svcs[n])
	}
	wg.Wait()
	if got := svcs[2].AtomicLoad(id); got != 100 {
		t.Fatalf("final = %d, want 100", got)
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	_, svcs := harness(t, 2)
	const lock, cond = LockID(4), CondID(8)
	ready := make(chan struct{})
	done := make(chan struct{})
	go func() {
		svcs[1].Acquire(lock)
		close(ready)
		svcs[1].CondWait(cond, lock)
		svcs[1].Release(lock)
		close(done)
	}()
	<-ready
	// Signal until the waiter is actually woken (Mesa semantics allow
	// a signal to arrive before the waiter blocks; our two-phase
	// protocol stores it, so one signal after registration suffices —
	// but we must wait for registration, hence the loop).
	for {
		svcs[0].Acquire(lock)
		svcs[0].CondSignal(cond)
		svcs[0].Release(lock)
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	_, svcs := harness(t, 3)
	const lock, cond = LockID(6), CondID(2)
	var woke atomic.Int32
	var wg sync.WaitGroup
	started := make(chan struct{}, 3)
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(s *Service) {
			defer wg.Done()
			s.Acquire(lock)
			started <- struct{}{}
			s.CondWait(cond, lock)
			woke.Add(1)
			s.Release(lock)
		}(svcs[n])
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	// All three have registered + released the lock once they block;
	// broadcast repeatedly until all wake (guards the register/block gap).
	for woke.Load() < 3 {
		svcs[0].CondBroadcast(cond)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
}

func TestMonitorProducesConsumes(t *testing.T) {
	_, svcs := harness(t, 2)
	mon0 := svcs[0].NewMonitor(10, 10)
	mon1 := svcs[1].NewMonitor(10, 10)
	var queue atomic.Int32 // stands in for shared state guarded by the monitor

	done := make(chan struct{})
	go func() {
		mon1.Enter()
		for queue.Load() == 0 {
			mon1.Wait()
		}
		queue.Add(-1)
		mon1.Exit()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	mon0.Enter()
	queue.Add(1)
	mon0.Broadcast()
	mon0.Exit()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke")
	}
}

func TestLockStatsCounters(t *testing.T) {
	_, svcs := harness(t, 2)
	svcs[0].Acquire(1) // lock 1 homed on node 1 → remote
	svcs[0].Release(1)
	svcs[0].Acquire(1)
	svcs[0].Release(1)
	if svcs[0].RemoteAcquires() != 1 || svcs[0].LocalAcquires() != 1 {
		t.Fatalf("remote=%d local=%d", svcs[0].RemoteAcquires(), svcs[0].LocalAcquires())
	}
}
