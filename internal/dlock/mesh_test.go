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

// meshPair builds a two-member mesh — two separate MeshNetworks over
// real loopback sockets, the same shape two OS processes have — with a
// lock service on each member's kernel, and wires each service's
// PeerGone pruning to the transport's departure notification exactly as
// the SPMD runtime (internal/core) does.
func meshPair(t *testing.T) [2]struct {
	Clu *cluster.Cluster
	Svc *Service
} {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	var out [2]struct {
		Clu *cluster.Cluster
		Svc *Service
	}
	for i := range out {
		topo := transport.Topology{Self: msg.NodeID(i), Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(clu.Kernel(msg.NodeID(i)))
		clu.OnPeerGone(func(peer msg.NodeID, _ error) { svc.PeerGone(peer) })
		clu.Start()
		out[i].Clu = clu
		out[i].Svc = svc
	}
	return out
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
