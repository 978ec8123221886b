package dlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/transport"
)

// meshMember is one member of a test mesh: its cluster, its lock
// service, and the departures its service has pruned (PeerGone), in
// order.
type meshMember struct {
	Clu  *cluster.Cluster
	Svc  *Service
	Gone chan msg.NodeID
}

// meshN builds an n-member mesh — n separate MeshNetworks over real
// loopback sockets, the same shape n OS processes have — with a lock
// service on each member's kernel, and wires each service's PeerGone
// pruning to the transport's departure notification exactly as the
// SPMD runtime (internal/core) does.
func meshN(t *testing.T, n int) []meshMember {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make(map[msg.NodeID]string, n)
	for i, a := range addrs {
		peers[msg.NodeID(i)] = a
	}
	out := make([]meshMember, n)
	for i := range out {
		topo := transport.Topology{Self: msg.NodeID(i), Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(clu.Kernel(msg.NodeID(i)))
		gone := make(chan msg.NodeID, n)
		clu.OnPeerGone(func(peer msg.NodeID, _ error) {
			svc.PeerGone(peer)
			gone <- peer
		})
		clu.Start()
		out[i] = meshMember{clu, svc, gone}
	}
	return out
}

// meshPair is meshN for two members.
func meshPair(t *testing.T) [2]meshMember {
	t.Helper()
	m := meshN(t, 2)
	return [2]meshMember{m[0], m[1]}
}

// TestMeshBarrierAcrossMembers is the cross-process barrier test: two
// mesh members, several threads on each, all meeting at one distributed
// barrier repeatedly. The arrivals are vkernel Calls that ride the real
// mesh to the barrier's home (lock/barrier IDs hash across members), so
// this is the synchronization shape the SPMD runtime's programs use —
// hammered under -race in CI.
func TestMeshBarrierAcrossMembers(t *testing.T) {
	pair := meshPair(t)
	defer pair[1].Clu.Close()
	defer pair[0].Clu.Close()

	const (
		perSide = 3
		total   = 2 * perSide
		rounds  = 20
	)
	// Both barrier homes get exercised: barrier 2 homes on member 0,
	// barrier 3 on member 1.
	for _, bar := range []BarrierID{2, 3} {
		var phase atomic.Int64
		var wg sync.WaitGroup
		for side := 0; side < 2; side++ {
			svc := pair[side].Svc
			for th := 0; th < perSide; th++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						svc.BarrierWait(bar, total)
						// Everyone observes the same phase count modulo
						// stragglers: no thread may be a full round ahead.
						p := phase.Add(1)
						if got, want := (p-1)/total, int64(r); got != want && got != want+1 {
							t.Errorf("barrier %d: arrival %d seen in round %d, want %d", bar, p, got, want)
						}
					}
				}()
			}
		}
		wg.Wait()
		if got := phase.Load(); got != total*rounds {
			t.Fatalf("barrier %d: %d arrivals, want %d", bar, got, total*rounds)
		}
	}
}

// TestMeshLockAcrossMembers: mutual exclusion holds when the lock's
// proxy ownership migrates between mesh members.
func TestMeshLockAcrossMembers(t *testing.T) {
	pair := meshPair(t)
	defer pair[1].Clu.Close()
	defer pair[0].Clu.Close()

	const lock = LockID(7)
	var inCS, violations atomic.Int32
	var wg sync.WaitGroup
	for side := 0; side < 2; side++ {
		svc := pair[side].Svc
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					svc.Acquire(lock)
					if inCS.Add(1) != 1 {
						violations.Add(1)
					}
					inCS.Add(-1)
					svc.Release(lock)
				}
			}()
		}
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations across mesh members", violations.Load())
	}
}

// TestPeerGonePrunesLockQueue: a member departs while queued for (and
// then while owning) a lock; the home prunes it so the remaining member
// is granted the lock instead of deadlocking behind a waiter or owner
// that no longer exists.
func TestPeerGoneReleasesDepartedOwner(t *testing.T) {
	pair := meshPair(t)
	defer pair[0].Clu.Close()

	// Lock 2 homes on member 0. Member 1 acquires it (becoming owner
	// via its proxy) and then leaves without releasing.
	const lock = LockID(2)
	pair[1].Svc.Acquire(lock)
	pair[1].Clu.Close() // graceful: goodbye, not wire death

	// The home observes the departure and force-releases; member 0 must
	// then acquire without deadlock.
	done := make(chan struct{})
	go func() {
		pair[0].Svc.Acquire(lock)
		pair[0].Svc.Release(lock)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire after owner departed deadlocked: PeerGone did not release the lock")
	}
	if got := pair[0].Clu.Kernel(0).C.Get("dlock.gone_owner"); got != 1 {
		t.Fatalf("dlock.gone_owner = %d, want 1", got)
	}
}

// meshRecords is attachRecords for a mesh: every member seeds lock id's
// 64-byte migratory copy, and only the home's seed stores.
func meshRecords(m []meshMember, id LockID) [][]byte {
	svcs := make([]*Service, len(m))
	for i := range m {
		svcs[i] = m[i].Svc
	}
	return attachRecords(svcs, id)
}

// waitParked waits until svc's proxy of lock id has a forward parked.
func waitParked(t *testing.T, svc *Service, id LockID) {
	t.Helper()
	p := svc.proxy(id)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		p.mu.Lock()
		parked := p.next != nil
		p.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiter's forward never parked at the holder")
		}
	}
}

// TestHolderDepartsRightAfterPassing: member 1 passes the lock to member
// 2 straight from its release and leaves at once. Its grant and its
// goodbye travel on different wires, so the home (member 0) cannot tell
// from the goodbye whether the grant is still on its way; it must send
// nothing, or a dataless grant could overtake the real one and the
// waiter would read stale bytes. The waiter reads the passer's last
// value, and no second grant reaches it.
func TestHolderDepartsRightAfterPassing(t *testing.T) {
	m := meshN(t, 3)
	defer m[2].Clu.Close()
	defer m[0].Clu.Close()
	const lock = LockID(0) // homed on member 0
	copies := meshRecords(m, lock)

	m[1].Svc.Acquire(lock)
	got := make(chan byte, 1)
	go func() {
		m[2].Svc.Acquire(lock)
		got <- copies[2][0]
		m[2].Svc.Release(lock)
	}()
	waitParked(t, m[1].Svc, lock)
	copies[1][0] = 7
	m[1].Svc.Release(lock) // passes the lock and the 7 to member 2
	// It owns nothing, so it hands nothing back; it fences the grant,
	// which may wait behind the first dial to member 2, onto the wire.
	if err := m[1].Svc.Leave(); err != nil {
		t.Fatal(err)
	}
	m[1].Clu.Close()

	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("the waiter read %d, want the passer's 7", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter was never granted the lock")
	}
	select {
	case <-m[0].Gone:
	case <-time.After(10 * time.Second):
		t.Fatal("the home never saw member 1 depart")
	}
	// A grant the home sent at the goodbye would reach member 2 as a
	// reply nobody waits for.
	k2 := m[2].Clu.Kernel(2)
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := k2.C.Get("drop.stray_reply"); n != 0 {
			t.Fatalf("the waiter got %d grants it did not wait for: the home granted at the goodbye", n)
		}
	}
	if n := m[0].Clu.Kernel(0).C.Get("dlock.gone_owner"); n != 0 {
		t.Fatalf("dlock.gone_owner = %d, want 0: the passer owned nothing when it left", n)
	}
}

// TestHolderDepartsWithParkedForward: member 1 leaves while it holds the
// lock with member 2's forward parked. Its departure hands the lock back
// to the home (Leave), data included, and the home grants member 2 from
// those bytes, so the waiter neither hangs nor reads stale bytes.
func TestHolderDepartsWithParkedForward(t *testing.T) {
	m := meshN(t, 3)
	defer m[2].Clu.Close()
	defer m[0].Clu.Close()
	const lock = LockID(0) // homed on member 0
	copies := meshRecords(m, lock)

	m[1].Svc.Acquire(lock)
	copies[1][0] = 9
	got := make(chan byte, 1)
	go func() {
		m[2].Svc.Acquire(lock)
		got <- copies[2][0]
		m[2].Svc.Release(lock)
	}()
	waitParked(t, m[1].Svc, lock)
	if err := m[1].Svc.Leave(); err != nil {
		t.Fatal(err)
	}
	m[1].Clu.Close()

	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("the waiter read %d, want the departed holder's 9", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter forwarded to the departed holder hangs")
	}
	if n := m[0].Clu.Kernel(0).C.Get("dlock.gone_owner"); n != 0 {
		t.Fatalf("dlock.gone_owner = %d, want 0: the holder handed the lock back", n)
	}
}

// TestDirectGrantFailureGoesBackToTheHome: a holder whose grant to a
// forwarded waiter cannot be sent — the waiter left — counts it
// (dlock.grant_failed), panics nothing, and hands the lock back to the
// home with its bytes. The home has marked the waiter lost, so it parks
// the bytes, and the next acquirer reads the holder's last write.
func TestDirectGrantFailureGoesBackToTheHome(t *testing.T) {
	m := meshN(t, 3)
	defer m[1].Clu.Close()
	defer m[0].Clu.Close()
	const lock = LockID(0) // homed on member 0
	copies := meshRecords(m, lock)

	// Pass the lock 1 → 2 → 1 first, so members 1 and 2 share a
	// connection for member 2's goodbye to ride.
	for _, n := range []int{1, 2} {
		m[n].Svc.Acquire(lock)
		m[n].Svc.Release(lock)
	}
	m[1].Svc.Acquire(lock)
	go func() {
		defer func() { recover() }() // its own node closes under it
		m[2].Svc.Acquire(lock)
	}()
	waitParked(t, m[1].Svc, lock)
	m[2].Clu.Close()
	for _, mm := range m[:2] {
		select {
		case <-mm.Gone:
		case <-time.After(10 * time.Second):
			t.Fatal("member 2's departure was never seen")
		}
	}
	copies[1][0] = 5
	m[1].Svc.Release(lock) // the grant to member 2 fails
	if n := m[1].Clu.Kernel(1).C.Get("dlock.grant_failed"); n != 1 {
		t.Fatalf("dlock.grant_failed = %d, want 1", n)
	}
	if n := m[0].Clu.Kernel(0).C.Get("dlock.gone_dequeued"); n != 1 {
		t.Fatalf("dlock.gone_dequeued = %d, want 1", n)
	}
	done := make(chan byte, 1)
	go func() {
		m[0].Svc.Acquire(lock)
		done <- copies[0][0]
		m[0].Svc.Release(lock)
	}()
	select {
	case v := <-done:
		if v != 5 {
			t.Fatalf("the next holder read %d, want the failed granter's 5", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the lock was lost with the failed grant")
	}
}

// TestWaiterDepartsWithAWaiterForwardedToIt: member 2 leaves while it
// waits at holder member 1 and member 3 waits behind it. Member 1's
// grant to member 2 fails, so the lock comes back to the home with
// member 1's bytes, and the home passes it on past member 2 to member 3.
func TestWaiterDepartsWithAWaiterForwardedToIt(t *testing.T) {
	m := meshN(t, 4)
	defer m[3].Clu.Close()
	defer m[1].Clu.Close()
	defer m[0].Clu.Close()
	const lock = LockID(0) // homed on member 0
	copies := meshRecords(m, lock)

	// Pass the lock 1 → 2 → 1 first, so members 1 and 2 share a
	// connection for member 2's goodbye to ride.
	for _, n := range []int{1, 2} {
		m[n].Svc.Acquire(lock)
		m[n].Svc.Release(lock)
	}
	m[1].Svc.Acquire(lock)
	go func() {
		defer func() { recover() }() // its own node closes under it
		m[2].Svc.Acquire(lock)
	}()
	waitParked(t, m[1].Svc, lock)
	got := make(chan byte, 1)
	go func() {
		defer func() { recover() }() // a hung acquire fails when the home closes
		m[3].Svc.Acquire(lock)
		got <- copies[3][0]
		m[3].Svc.Release(lock)
	}()
	waitParked(t, m[2].Svc, lock)
	m[2].Clu.Close()
	for _, mm := range m[:2] {
		select {
		case <-mm.Gone:
		case <-time.After(10 * time.Second):
			t.Fatal("member 2's departure was never seen")
		}
	}
	copies[1][0] = 5
	m[1].Svc.Release(lock) // the grant to member 2 fails
	select {
	case v := <-got:
		if v != 5 {
			t.Fatalf("member 3 read %d, want member 1's 5", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("member 3, forwarded to the departed waiter, hangs")
	}
}
