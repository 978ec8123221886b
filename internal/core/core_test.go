package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"munin/internal/api"
	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/protocol"
)

func newSys(t *testing.T, nodes int) *System {
	t.Helper()
	s, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSystemBasics(t *testing.T) {
	s := newSys(t, 3)
	if s.Name() != "munin" || s.Nodes() != 3 {
		t.Fatalf("name/nodes: %s %d", s.Name(), s.Nodes())
	}
}

func TestRunSPMDCountsThreads(t *testing.T) {
	s := newSys(t, 2)
	var n atomic.Int64
	s.Run(8, func(c api.Ctx) {
		n.Add(1)
		if c.NThreads() != 8 {
			t.Errorf("NThreads = %d", c.NThreads())
		}
		if c.Node() != c.ThreadID()%2 {
			t.Errorf("thread %d on node %d", c.ThreadID(), c.Node())
		}
	})
	if n.Load() != 8 {
		t.Fatalf("ran %d", n.Load())
	}
}

func TestSharedCounterUnderLock(t *testing.T) {
	s := newSys(t, 4)
	ctr := s.Alloc("counter", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	lock := s.NewLock()
	s.Run(8, func(c api.Ctx) {
		for i := 0; i < 10; i++ {
			c.Acquire(lock)
			api.WriteU64(c, ctr, 0, api.ReadU64(c, ctr, 0)+1)
			c.Release(lock)
		}
	})
	var final uint64
	s.Run(1, func(c api.Ctx) { final = api.ReadU64(c, ctr, 0) })
	if final != 80 {
		t.Fatalf("counter = %d, want 80", final)
	}
}

func TestMigratoryCounterUnderItsLock(t *testing.T) {
	s := newSys(t, 3)
	opts := protocol.DefaultOptions()
	lock := s.NewLock()
	opts.Lock = lock
	ctr := s.Alloc("mig", 8, protocol.Migratory, opts, nil)
	s.Run(6, func(c api.Ctx) {
		for i := 0; i < 5; i++ {
			c.Acquire(lock)
			api.WriteU64(c, ctr, 0, api.ReadU64(c, ctr, 0)+1)
			c.Release(lock)
		}
	})
	var final uint64
	s.Run(1, func(c api.Ctx) {
		c.Acquire(lock)
		final = api.ReadU64(c, ctr, 0)
		c.Release(lock)
	})
	if final != 30 {
		t.Fatalf("migratory counter = %d, want 30", final)
	}
}

func TestMigratoryAutoLock(t *testing.T) {
	// Alloc of a migratory object without an explicit lock allocates one;
	// access without holding it panics, which we verify indirectly by
	// checking the object works when we don't touch it at all.
	s := newSys(t, 2)
	_ = s.Alloc("auto-mig", 8, protocol.Migratory, protocol.DefaultOptions(), nil)
}

func TestWriteManyBarrierPhases(t *testing.T) {
	s := newSys(t, 4)
	grid := s.Alloc("grid", 4*8, protocol.WriteMany, protocol.DefaultOptions(), nil)
	bar := s.NewBarrier()
	s.Run(4, func(c api.Ctx) {
		id := c.ThreadID()
		// Phase 1: each thread writes its own slot.
		api.WriteU64(c, grid, id*8, uint64(id+1))
		c.Barrier(bar, 4)
		// Phase 2: every thread must see all slots.
		sum := uint64(0)
		for i := 0; i < 4; i++ {
			sum += api.ReadU64(c, grid, i*8)
		}
		if sum != 1+2+3+4 {
			t.Errorf("thread %d sum = %d, want 10", id, sum)
		}
	})
}

func TestFetchAddDistributesWork(t *testing.T) {
	s := newSys(t, 3)
	at := s.NewAtomic()
	claimed := make([]atomic.Bool, 60)
	s.Run(6, func(c api.Ctx) {
		for {
			i := c.FetchAdd(at, 1)
			if i >= int64(len(claimed)) {
				return
			}
			if claimed[i].Swap(true) {
				t.Errorf("work item %d claimed twice", i)
			}
		}
	})
	for i := range claimed {
		if !claimed[i].Load() {
			t.Fatalf("work item %d never claimed", i)
		}
	}
}

func TestResultCollectedAfterRun(t *testing.T) {
	s := newSys(t, 4)
	opts := protocol.DefaultOptions()
	opts.Home = 0
	res := s.Alloc("res", 8*8, protocol.Result, opts, nil)
	s.Run(8, func(c api.Ctx) {
		api.WriteU64(c, res, c.ThreadID()*8, uint64(c.ThreadID()*7))
		// exit flush propagates the buffered result
	})
	s.Run(1, func(c api.Ctx) {
		for i := 0; i < 8; i++ {
			if got := api.ReadU64(c, res, i*8); got != uint64(i*7) {
				t.Errorf("slot %d = %d, want %d", i, got, i*7)
			}
		}
	})
}

func TestTypedHelpers(t *testing.T) {
	s := newSys(t, 1)
	r := s.Alloc("vals", 32, protocol.Conventional, protocol.DefaultOptions(), nil)
	s.Run(1, func(c api.Ctx) {
		api.WriteF64(c, r, 0, 3.25)
		api.WriteI64(c, r, 8, -17)
		api.WriteU32(c, r, 16, 99)
		if got := api.ReadF64(c, r, 0); got != 3.25 {
			t.Errorf("f64 = %g", got)
		}
		if got := api.ReadI64(c, r, 8); got != -17 {
			t.Errorf("i64 = %d", got)
		}
		if got := api.ReadU32(c, r, 16); got != 99 {
			t.Errorf("u32 = %d", got)
		}
	})
}

func TestTrafficCountersAdvance(t *testing.T) {
	s := newSys(t, 2)
	r := s.Alloc("x", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	if s.Messages() != 0 {
		t.Fatalf("alloc sent %d messages, want none", s.Messages()) // every node installs it locally
	}
	before := s.Messages()
	s.Run(2, func(c api.Ctx) {
		api.WriteU64(c, r, 0, uint64(c.ThreadID()))
	})
	if s.Messages() == before {
		t.Fatal("conventional writes from two nodes sent no traffic")
	}
	if s.Bytes() <= 0 {
		t.Fatal("no bytes counted")
	}
	if s.Stats() == nil || s.NodeCounters(0) == nil {
		t.Fatal("stats accessors broken")
	}
}

// TestAllocSendsNothing: every node of an in-process cluster installs
// each object itself, so allocation sends no message — and each node's
// first read (first acquire, for the migratory object) still returns the
// initial bytes. One object per policy row: the nine annotations under
// the directory engine, homed on node 2 (the write-once one among them),
// plus a lease read-mostly object; the migratory object's lock is homed
// away from the object, so its home cannot be the node that seeds it.
func TestAllocSendsNothing(t *testing.T) {
	for _, tr := range []string{"chan", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			s, err := New(Config{Nodes: 3, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			type object struct {
				name string
				r    api.RegionID
				lock dlock.LockID // migratory only
				init []byte
			}
			var objs []object
			alloc := func(name string, a protocol.Annotation, opts protocol.Options) {
				init := []byte(fmt.Sprintf("%-16s", name))
				objs = append(objs, object{name: name, r: s.Alloc(name, len(init), a, opts, init), lock: opts.Lock, init: init})
			}
			for a := protocol.Conventional; a <= protocol.GeneralRW; a++ {
				opts := protocol.DefaultOptions()
				opts.Home = 2
				if a == protocol.Migratory {
					opts.Lock = s.NewLock()
					for cluster.HomeOf(uint64(opts.Lock), 3) == 2 {
						opts.Lock = s.NewLock()
					}
				}
				alloc(a.String(), a, opts)
			}
			lease := protocol.DefaultOptions()
			lease.Home = 2
			lease.Engine = protocol.EngineLease
			alloc("lease", protocol.ReadMostly, lease)
			if m := s.Messages(); m != 0 {
				t.Fatalf("allocating %d objects sent %d messages, want none", len(objs), m)
			}
			s.Run(3, func(c api.Ctx) {
				for _, o := range objs {
					got := make([]byte, len(o.init))
					if o.lock != 0 {
						c.Acquire(o.lock)
						c.Read(o.r, 0, got)
						c.Release(o.lock)
					} else {
						c.Read(o.r, 0, got)
					}
					if !bytes.Equal(got, o.init) {
						t.Errorf("node %d: first read of %s = %q, want %q", c.Node(), o.name, got, o.init)
					}
				}
			})
		})
	}
}

func TestUnknownRegionPanics(t *testing.T) {
	s := newSys(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Run(1, func(c api.Ctx) {
		c.Read(api.RegionID(42), 0, make([]byte, 1))
	})
}

func TestCloseIdempotent(t *testing.T) {
	s, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
}

func TestTCPTransportEndToEnd(t *testing.T) {
	s, err := New(Config{Nodes: 2, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctr := s.Alloc("ctr", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	lock := s.NewLock()
	s.Run(4, func(c api.Ctx) {
		c.Acquire(lock)
		api.WriteU64(c, ctr, 0, api.ReadU64(c, ctr, 0)+1)
		c.Release(lock)
	})
	var final uint64
	s.Run(1, func(c api.Ctx) { final = api.ReadU64(c, ctr, 0) })
	if final != 4 {
		t.Fatalf("tcp counter = %d, want 4", final)
	}
}
