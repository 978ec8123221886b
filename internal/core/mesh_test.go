package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/api"
	"munin/internal/dlock"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/protocol"
	"munin/internal/transport"
)

// meshTopos reserves loopback addresses and builds one topology per
// member of an n-member mesh.
func meshTopos(t *testing.T, n int) []transport.Topology {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make(map[msg.NodeID]string, n)
	for i, a := range addrs {
		peers[msg.NodeID(i)] = a
	}
	topos := make([]transport.Topology, n)
	for i := range topos {
		topos[i] = transport.Topology{Self: msg.NodeID(i), Peers: peers}
	}
	return topos
}

// spmdMembers runs program once per topology member, each member in its
// own goroutine with its own System — the in-one-test-process stand-in
// for n OS processes, crossing real loopback sockets all the same.
// Returns the per-member errors.
func spmdMembers(t *testing.T, topos []transport.Topology, program func(sys *System) error) []error {
	t.Helper()
	errs := make([]error, len(topos))
	var wg sync.WaitGroup
	for i := range topos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := New(Config{Topology: &topos[i]})
			if err != nil {
				errs[i] = err
				return
			}
			defer sys.Close()
			errs[i] = program(sys)
			// Every kind a member can be sent is registered before its
			// kernel dispatches anything, however early a peer calls.
			if n := sys.clu.Kernel(topos[i].Self).C.Get("drop.unhandled"); n != 0 {
				t.Errorf("member %d dropped %d requests for lack of a handler", i, n)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SPMD members deadlocked")
	}
	return errs
}

// quickstartProgram is the README program — a locked counter, a
// write-many array written by every thread at its own offset, a barrier
// — returning the final shared-memory bytes as seen by thread 0. The
// identical function runs in-process and as an SPMD mesh member.
func quickstartProgram(threads int) func(sys *System) error {
	return func(sys *System) error {
		counter := sys.Alloc("counter", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
		lock := sys.NewLock()
		arr := sys.Alloc("arr", threads*8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		bar := sys.NewBarrier()
		var out atomic.Pointer[[]byte]
		err := sys.RunErr(threads, func(c api.Ctx) {
			c.Acquire(lock)
			api.WriteU64(c, counter, 0, api.ReadU64(c, counter, 0)+1)
			c.Release(lock)
			api.WriteU64(c, arr, c.ThreadID()*8, uint64(c.ThreadID()*7+1))
			c.Barrier(bar, threads)
			if c.ThreadID() == 0 {
				buf := make([]byte, threads*8+8)
				c.Read(arr, 0, buf[:threads*8])
				c.Read(counter, 0, buf[threads*8:])
				out.Store(&buf)
			}
		})
		if err != nil {
			return err
		}
		if p := out.Load(); p != nil {
			return &resultBytes{bytes: *p}
		}
		return nil
	}
}

// resultBytes smuggles thread 0's view of shared memory out of a
// member program through the error return (nil-like success carrying
// data; filtered by callers).
type resultBytes struct{ bytes []byte }

func (r *resultBytes) Error() string { return fmt.Sprintf("result: %x", r.bytes) }

// TestMeshRunMatchesInProcess is the tentpole's acceptance shape: the
// identical program produces byte-identical shared-memory results run
// in-process with Nodes: 2 and as two SPMD mesh members.
func TestMeshRunMatchesInProcess(t *testing.T) {
	const nthreads = 8

	inProc := newSys(t, 2)
	var want []byte
	switch res := quickstartProgram(nthreads)(inProc).(type) {
	case *resultBytes:
		want = res.bytes
	default:
		t.Fatalf("in-process run: %v", res)
	}
	// Thread 0 wrote slot 0 with 1, ..., and the counter reached 8.
	if got := want[nthreads*8+7]; got != nthreads {
		t.Fatalf("in-process counter = %d, want %d", got, nthreads)
	}

	errs := spmdMembers(t, meshTopos(t, 2), quickstartProgram(nthreads))
	var got []byte
	for i, err := range errs {
		switch res := err.(type) {
		case nil:
			if i == 0 {
				t.Fatal("member 0 runs thread 0 and must report the result bytes")
			}
		case *resultBytes:
			if i != 0 {
				t.Fatalf("member %d reported result bytes; thread 0 is placed on node 0", i)
			}
			got = res.bytes
		default:
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if string(got) != string(want) {
		t.Fatalf("mesh result differs from in-process:\n  mesh       %x\n  in-process %x", got, want)
	}
}

// TestMeshRunPlacement: each member executes exactly its own share of
// the team, with team-global thread IDs.
func TestMeshRunPlacement(t *testing.T) {
	const nthreads = 6
	var mu sync.Mutex
	ranOn := map[int][]int{} // member -> thread IDs it executed
	program := func(sys *System) error {
		bar := sys.NewBarrier()
		return sys.RunErr(nthreads, func(c api.Ctx) {
			mu.Lock()
			ranOn[sys.Self()] = append(ranOn[sys.Self()], c.ThreadID())
			mu.Unlock()
			if c.Node() != sys.Self() {
				t.Errorf("thread %d reports node %d inside member %d", c.ThreadID(), c.Node(), sys.Self())
			}
			c.Barrier(bar, nthreads)
		})
	}
	for i, err := range spmdMembers(t, meshTopos(t, 2), program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	for member, ids := range ranOn {
		for _, id := range ids {
			if id%2 != member {
				t.Fatalf("thread %d ran on member %d (round-robin places it on %d)", id, member, id%2)
			}
		}
	}
	if len(ranOn[0])+len(ranOn[1]) != nthreads {
		t.Fatalf("team executed %d threads, want %d", len(ranOn[0])+len(ranOn[1]), nthreads)
	}
}

// TestMeshSetupDivergenceDetected: members whose setup code diverged
// (different allocation sizes here) get a typed *SetupDivergenceError
// from the first Run gate, in every member — not silent corruption.
func TestMeshSetupDivergenceDetected(t *testing.T) {
	program := func(sys *System) error {
		size := 8
		if sys.Self() == 1 {
			size = 16 // the bug under test: member 1 allocates differently
		}
		sys.Alloc("x", size, protocol.WriteMany, protocol.DefaultOptions(), nil)
		return sys.RunErr(2, func(c api.Ctx) {})
	}
	for i, err := range spmdMembers(t, meshTopos(t, 2), program) {
		var div *SetupDivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("member %d: err = %v, want *SetupDivergenceError", i, err)
		}
		if div.Gate != 1 {
			t.Fatalf("member %d: divergence at gate %d, want the first gate", i, div.Gate)
		}
	}
}

// TestMeshSetupDivergentOrderDetected: same allocations, different
// program order — caught too (IDs would disagree).
func TestMeshSetupDivergentOrderDetected(t *testing.T) {
	program := func(sys *System) error {
		if sys.Self() == 0 {
			sys.Alloc("a", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
			sys.NewLock()
		} else {
			sys.NewLock()
			sys.Alloc("a", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		}
		return sys.RunErr(2, func(c api.Ctx) {})
	}
	for i, err := range spmdMembers(t, meshTopos(t, 2), program) {
		var div *SetupDivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("member %d: err = %v, want *SetupDivergenceError", i, err)
		}
	}
}

// TestMeshRunIsClusterWideBarrier: no member leaves Run before every
// member's threads have finished — state written by a slow member's
// thread is visible to setup code after Run in every member.
func TestMeshRunIsClusterWideBarrier(t *testing.T) {
	var afterRun atomic.Int32
	var finished atomic.Int32
	program := func(sys *System) error {
		sys.Alloc("x", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		err := sys.RunErr(2, func(c api.Ctx) {
			if c.ThreadID() == 1 {
				time.Sleep(100 * time.Millisecond) // the slow member
			}
			finished.Add(1)
		})
		if err != nil {
			return err
		}
		if finished.Load() != 2 {
			t.Errorf("member %d left Run with %d/2 threads finished", sys.Self(), finished.Load())
		}
		afterRun.Add(1)
		return nil
	}
	for i, err := range spmdMembers(t, meshTopos(t, 2), program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if afterRun.Load() != 2 {
		t.Fatalf("%d members completed, want 2", afterRun.Load())
	}
}

// TestMeshAccessorGuards: asking a mesh member for another node's
// state panics with a clear message instead of a nil dereference.
func TestMeshAccessorGuards(t *testing.T) {
	topos := meshTopos(t, 2)
	program := func(sys *System) error {
		if sys.Self() == 0 {
			// Our own state is reachable...
			if sys.ProtocolNode(0) == nil || sys.LockService(0) == nil {
				t.Error("self state must exist")
			}
			// ...the peer's lives in "another process".
			func() {
				defer func() {
					if recover() == nil {
						t.Error("ProtocolNode(1) on member 0 should panic")
					}
				}()
				sys.ProtocolNode(1)
			}()
		}
		return sys.RunErr(2, func(c api.Ctx) {})
	}
	for i, err := range spmdMembers(t, topos, program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}

// TestMeshRunGateFailsOnLostMember: a member that departs between Runs
// fails the survivors' next Run gate with a member-lost error — the
// gate must never hang waiting for an arrival that can no longer come.
func TestMeshRunGateFailsOnLostMember(t *testing.T) {
	program := func(sys *System) error {
		sys.Alloc("x", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		if err := sys.RunErr(3, func(c api.Ctx) {}); err != nil {
			return fmt.Errorf("first Run: %w", err)
		}
		if sys.Self() == 2 {
			return nil // leaves the computation early (spmdMembers Closes it)
		}
		err := sys.RunErr(3, func(c api.Ctx) {})
		if err == nil {
			return fmt.Errorf("member %d: second Run succeeded despite member 2 leaving", sys.Self())
		}
		if !strings.Contains(err.Error(), "lost") {
			return fmt.Errorf("member %d: second Run error %q does not report the lost member", sys.Self(), err)
		}
		return nil
	}
	for i, err := range spmdMembers(t, meshTopos(t, 3), program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}

// TestMeshBarrierMemberDiesParked: without a reconnect policy a member
// that dies with its barrier arrival parked at the home is lost, not
// awaited. Its arrival, carried update and all, still counts, so the
// barrier completes when the survivors arrive, and each survivor's Run
// fails at the exit gate with the member-lost error. Dropping the
// arrival would leave the survivors waiting at the barrier for ever.
func TestMeshBarrierMemberDiesParked(t *testing.T) {
	var victimSys atomic.Pointer[System]
	// cluster.Kill closes the kernels before it kills the wire: the
	// victim's Run can return in between, and its Close must not get
	// to say goodbye first.
	killed := make(chan struct{})
	downSeen := make(chan struct{})
	var downOnce sync.Once
	// A member's Close does not wait for its handlers: a home that left
	// as soon as its own Run failed could drop the release it had not
	// yet sent to the other survivor. Each survivor closes only once
	// both Runs have returned.
	var ran sync.WaitGroup
	ran.Add(2)
	program := func(sys *System) error {
		bar := sys.NewBarrier()
		ls := sys.locks[sys.self]
		home := int(ls.BarrierHome(bar))
		victim := 2 // neither the barrier's home nor node 0, whose gate must survive
		if home == 2 {
			victim = 1
		}
		opts := protocol.DefaultOptions()
		opts.Home = msg.NodeID(home)
		x := sys.Alloc("x", 64, protocol.WriteMany, opts, nil)
		switch sys.Self() {
		case home:
			// Registered after the runtime's own handler, so it runs
			// once the home has handled the death.
			sys.clu.Network().(transport.PeerDownNotifier).OnPeerDown(func(peer msg.NodeID, _ uint64, _ error) {
				if int(peer) == victim {
					downOnce.Do(func() { close(downSeen) })
				}
			})
		case victim:
			victimSys.Store(sys)
		}
		var got uint64
		err := sys.RunErr(3, func(c api.Ctx) {
			switch c.ThreadID() {
			case victim:
				defer func() { recover() }() // the barrier fails as its member dies
				api.WriteU64(c, x, 16, 7)    // rides the arrival: the thread is alone on its node
				c.Barrier(bar, 3)            // its member dies parked here
				return
			case home:
				deadline := time.Now().Add(10 * time.Second)
				for ls.BarrierArrived(bar) < 1 {
					if time.Now().After(deadline) {
						t.Error("the victim's arrival never parked at the home")
						return
					}
					time.Sleep(time.Millisecond)
				}
				victimSys.Load().clu.Kill()
				close(killed)
			}
			<-downSeen
			c.Barrier(bar, 3)
			if c.ThreadID() == home {
				// The other survivor may leave before a read fault of
				// its own could reach the home.
				got = api.ReadU64(c, x, 16)
			}
		})
		if sys.Self() == victim {
			<-killed
			return nil // killed mid-Run: whatever its Run reports
		}
		ran.Done()
		ran.Wait()
		return survivorVerdict(sys, home, got, err)
	}
	for i, err := range spmdMembers(t, meshTopos(t, 3), program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}

// survivorVerdict checks what a survivor of a member that died parked
// at a barrier reports: the home's participant read the dead member's
// carried word (got) after the barrier, and each survivor's Run failed
// at the exit gate with the member-lost error, its arrival unpurged.
func survivorVerdict(sys *System, home int, got uint64, err error) error {
	if sys.Self() == home && got != 7 {
		return fmt.Errorf("read %d after the barrier, want the dead member's 7", got)
	}
	// Node 0 may fail the exit gate and leave before the other
	// survivor's arrival lands there, which is node 0 lost to it.
	if err == nil || !strings.Contains(err.Error(), "lost") {
		return fmt.Errorf("Run = %v, want the member-lost error", err)
	}
	// Node 0's verdict wraps a lost member's typed cause: the victim's
	// wire death, or the other survivor's goodbye when it has already
	// left.
	_, down := transport.PeerDownOf(err)
	_, gone := transport.PeerGoneOf(err)
	if sys.Self() == 0 && !down && !gone {
		return fmt.Errorf("Run = %v, want it to wrap a peer-down or peer-gone error", err)
	}
	if n := sys.clu.Kernel(sys.self).C.Get("dlock.barrier_purged"); n != 0 {
		return fmt.Errorf("purged %d barrier arrivals of a member that cannot come back", n)
	}
	return nil
}

// TestMeshBarrierMemberDiesBesideParkedHome is
// TestMeshBarrierMemberDiesParked with the home's participant parked
// first: it arrives without a message, a local waiter in the barrier's
// state with no call of its own, and only then does the victim's
// carried arrival park beside it and its member die. The other survivor
// then arrives and completes the barrier, the dead member's arrival
// counted; the home's participant must be handed its release, read the
// dead member's word, and fail at the exit gate like the other
// survivor.
func TestMeshBarrierMemberDiesBesideParkedHome(t *testing.T) {
	var (
		victimSys atomic.Pointer[System]
		homeLocks atomic.Pointer[dlock.Service]
		downOnce  sync.Once
		ran       sync.WaitGroup
	)
	killed := make(chan struct{})
	downSeen := make(chan struct{})
	ran.Add(2)
	// arrived waits until the home holds n arrivals at bar.
	arrived := func(bar dlock.BarrierID, n int) bool {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if ls := homeLocks.Load(); ls != nil && ls.BarrierArrived(bar) >= n {
				return true
			}
			if time.Now().After(deadline) {
				t.Errorf("the home never held %d arrivals", n)
				return false
			}
		}
	}
	program := func(sys *System) error {
		bar := sys.NewBarrier()
		ls := sys.locks[sys.self]
		home := int(ls.BarrierHome(bar))
		victim := 2 // neither the barrier's home nor node 0, whose gate must survive
		if home == 2 {
			victim = 1
		}
		opts := protocol.DefaultOptions()
		opts.Home = msg.NodeID(home)
		x := sys.Alloc("x", 64, protocol.WriteMany, opts, nil)
		switch sys.Self() {
		case home:
			homeLocks.Store(ls)
			sys.clu.Network().(transport.PeerDownNotifier).OnPeerDown(func(peer msg.NodeID, _ uint64, _ error) {
				if int(peer) == victim {
					downOnce.Do(func() { close(downSeen) })
				}
			})
		case victim:
			victimSys.Store(sys)
		}
		var got uint64
		err := sys.RunErr(3, func(c api.Ctx) {
			switch c.ThreadID() {
			case home:
				c.Barrier(bar, 3) // parks first, a local waiter
				got = api.ReadU64(c, x, 16)
			case victim:
				defer func() { recover() }() // the barrier fails as its member dies
				if !arrived(bar, 1) {
					return
				}
				api.WriteU64(c, x, 16, 7) // rides the arrival: the thread is alone on its node
				c.Barrier(bar, 3)         // its member dies parked here
			default: // the other survivor
				if arrived(bar, 2) {
					victimSys.Load().clu.Kill()
				}
				close(killed)
				<-downSeen
				c.Barrier(bar, 3)
			}
		})
		if sys.Self() == victim {
			<-killed
			return nil // killed mid-Run: whatever its Run reports
		}
		ran.Done()
		ran.Wait()
		return survivorVerdict(sys, home, got, err)
	}
	for i, err := range spmdMembers(t, meshTopos(t, 3), program) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}
