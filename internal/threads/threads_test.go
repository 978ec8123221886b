package threads

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"munin/internal/msg"
)

func TestSPMDRunsAllThreads(t *testing.T) {
	var count atomic.Int64
	seen := make([]atomic.Bool, 10)
	SPMD(4, 10, nil, func(th *Thread) {
		count.Add(1)
		seen[th.ID].Store(true)
		if th.NThreads != 10 {
			t.Errorf("NThreads = %d", th.NThreads)
		}
	})
	if count.Load() != 10 {
		t.Fatalf("ran %d threads, want 10", count.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

func TestSPMDRoundRobinPlacement(t *testing.T) {
	var mu sync.Mutex
	placed := map[int]msg.NodeID{}
	SPMD(3, 7, nil, func(th *Thread) {
		mu.Lock()
		placed[th.ID] = th.Node
		mu.Unlock()
	})
	for id, node := range placed {
		if node != msg.NodeID(id%3) {
			t.Fatalf("thread %d on node %d, want %d", id, node, id%3)
		}
	}
}

func TestBlockedPlacement(t *testing.T) {
	// 8 threads over 4 nodes: threads 0-1 on node 0, 2-3 on node 1, ...
	for id := 0; id < 8; id++ {
		want := msg.NodeID(id / 2)
		if got := Blocked(id, 8, 4); got != want {
			t.Fatalf("Blocked(%d,8,4) = %d, want %d", id, got, want)
		}
	}
	// Fewer threads than nodes: falls back to one per node.
	if got := Blocked(1, 2, 4); got != 1 {
		t.Fatalf("Blocked(1,2,4) = %d, want 1", got)
	}
}

func TestSPMDLocalRunsOnlyLocalShare(t *testing.T) {
	// 10 threads over 4 nodes, run node by node: every thread runs
	// exactly once across the four "processes", on its placed node,
	// with team-global ID/NThreads.
	var count atomic.Int64
	seen := make([]atomic.Int64, 10)
	for self := 0; self < 4; self++ {
		SPMDLocal(msg.NodeID(self), 4, 10, nil, func(th *Thread) {
			count.Add(1)
			seen[th.ID].Add(1)
			if th.Node != msg.NodeID(self) {
				t.Errorf("thread %d ran on self=%d but placed on node %d", th.ID, self, th.Node)
			}
			if th.NThreads != 10 {
				t.Errorf("NThreads = %d, want team-global 10", th.NThreads)
			}
		})
	}
	if count.Load() != 10 {
		t.Fatalf("ran %d threads across members, want 10", count.Load())
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("thread %d ran %d times, want exactly once", i, seen[i].Load())
		}
	}
}

func TestSPMDLocalEmptyShareReturns(t *testing.T) {
	// 2 threads on a 4-node cluster: nodes 2 and 3 have no threads.
	ran := false
	SPMDLocal(3, 4, 2, nil, func(*Thread) { ran = true })
	if ran {
		t.Fatal("node 3 should have an empty share of a 2-thread team")
	}
}

func TestSPMDLocalBadSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SPMDLocal(4, 4, 8, nil, func(*Thread) {})
}

func TestSPMDPanicsPropagate(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	SPMD(2, 4, nil, func(th *Thread) {
		if th.ID == 3 {
			panic("boom")
		}
	})
}

// A thread that dies while another waits on something the dead one
// would have done reaches the caller at once instead of hanging the
// run: against an SPMD that waits for every thread, the timer fails the
// test instead of letting it hang.
func TestSPMDPanicDoesNotWaitForBlockedThreads(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		SPMD(2, 2, nil, func(th *Thread) {
			if th.ID == 0 {
				panic("boom")
			}
			<-block
		})
	}()
	select {
	case r := <-got:
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("thread 0's panic did not reach the caller within 5 s while thread 1 was blocked")
	}
}

func TestSPMDBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SPMD(0, 1, nil, func(*Thread) {})
}

func TestPartitionCoversRangeExactly(t *testing.T) {
	f := func(n16 uint8, t8 uint8) bool {
		n := int(n16)
		nth := int(t8)%8 + 1
		covered := 0
		prevHi := 0
		for id := 0; id < nth; id++ {
			lo, hi := Partition(n, nth, id)
			if lo != prevHi {
				return false // chunks must be contiguous
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	// No chunk may differ from another by more than one element.
	lo0, hi0 := Partition(10, 3, 0)
	lo2, hi2 := Partition(10, 3, 2)
	if (hi0-lo0)-(hi2-lo2) > 1 {
		t.Fatalf("unbalanced: %d vs %d", hi0-lo0, hi2-lo2)
	}
}
