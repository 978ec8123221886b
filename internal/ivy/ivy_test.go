package ivy

import (
	"sync"
	"testing"

	"munin/internal/api"
	"munin/internal/protocol"
)

func newSys(t *testing.T, nodes, pageSize int) *System {
	t.Helper()
	s, err := New(Config{Nodes: nodes, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestStrictCoherenceAcrossNodes(t *testing.T) {
	s := newSys(t, 3, 128)
	r := s.Alloc("x", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	s.Run(3, func(c api.Ctx) {
		if c.ThreadID() == 0 {
			api.WriteU64(c, r, 0, 42)
		}
	})
	s.Run(3, func(c api.Ctx) {
		if got := api.ReadU64(c, r, 0); got != 42 {
			t.Errorf("thread %d read %d, want 42", c.ThreadID(), got)
		}
	})
}

func TestCrossPageAccess(t *testing.T) {
	s := newSys(t, 2, 64)
	// Region bigger than a page; write a value straddling the boundary.
	r := s.Alloc("big", 256, protocol.Conventional, protocol.DefaultOptions(), nil)
	s.Run(1, func(c api.Ctx) {
		api.WriteU64(c, r, 60, 0xdeadbeefcafef00d) // straddles page 0/1
		if got := api.ReadU64(c, r, 60); got != 0xdeadbeefcafef00d {
			t.Errorf("straddling read = %#x", got)
		}
		// Fill the whole region and read it back.
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(i)
		}
		c.Write(r, 0, data)
		got := make([]byte, 256)
		c.Read(r, 0, got)
		for i := range got {
			if got[i] != byte(i) {
				t.Fatalf("byte %d = %d", i, got[i])
			}
		}
	})
}

func TestInitData(t *testing.T) {
	s := newSys(t, 2, 64)
	init := make([]byte, 100)
	for i := range init {
		init[i] = byte(i * 3)
	}
	r := s.Alloc("init", 100, protocol.Conventional, protocol.DefaultOptions(), init)
	s.Run(2, func(c api.Ctx) {
		got := make([]byte, 100)
		c.Read(r, 0, got)
		for i := range got {
			if got[i] != byte(i*3) {
				t.Errorf("thread %d byte %d = %d", c.ThreadID(), i, got[i])
				return
			}
		}
	})
}

// TestAllocSendsNothing: every node installs each new page itself, so
// an allocation without initial bytes sends no message, and the pages
// still serve every node.
func TestAllocSendsNothing(t *testing.T) {
	s := newSys(t, 3, 64)
	r := s.Alloc("x", 200, protocol.Conventional, protocol.DefaultOptions(), nil) // four pages
	if m := s.Messages(); m != 0 {
		t.Fatalf("allocating four pages sent %d messages, want none", m)
	}
	s.Run(3, func(c api.Ctx) {
		if c.ThreadID() == 1 {
			api.WriteU64(c, r, 192, 7)
		}
	})
	s.Run(3, func(c api.Ctx) {
		if got := api.ReadU64(c, r, 192); got != 7 {
			t.Errorf("thread %d read %d, want 7", c.ThreadID(), got)
		}
	})
}

func TestRegionsPackIntoSharedPages(t *testing.T) {
	s := newSys(t, 2, 1024)
	a := s.Alloc("a", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	b := s.Alloc("b", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	// Both regions live in page 0: a write to either contends for the
	// same page. We verify by checking only one page was created.
	s.mu.Lock()
	pages := s.numPages
	s.mu.Unlock()
	if pages != 1 {
		t.Fatalf("2 small regions allocated %d pages, want 1 (packed)", pages)
	}
	_ = a
	_ = b
}

func TestFalseSharingCausesTraffic(t *testing.T) {
	// Two unrelated 8-byte counters in the same page, each written by a
	// different node: every write ping-pongs the page (false sharing).
	// The same workload in Munin with per-counter write-many objects
	// sends only flush diffs. Here we just assert Ivy's pathology.
	s := newSys(t, 2, 1024)
	a := s.Alloc("a", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	b := s.Alloc("b", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	bar := s.NewBarrier()
	before := s.Stats().ByClass()["coherence"]
	const iters = 20
	s.Run(2, func(c api.Ctx) {
		r := a
		if c.ThreadID() == 1 {
			r = b
		}
		for i := 0; i < iters; i++ {
			api.WriteU64(c, r, 0, uint64(i))
			c.Barrier(bar, 2) // forces the writes to interleave
		}
	})
	pingPong := s.Stats().ByClass()["coherence"] - before
	// Every interleaved round moves page ownership: at least one
	// WriteOwn round trip per iteration.
	if pingPong < iters {
		t.Fatalf("false sharing produced only %d coherence messages over %d rounds; expected page ping-pong",
			pingPong, iters)
	}
}

func TestLocksAndBarriersWork(t *testing.T) {
	s := newSys(t, 2, 256)
	ctr := s.Alloc("ctr", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	lock := s.NewLock()
	bar := s.NewBarrier()
	s.Run(4, func(c api.Ctx) {
		c.Acquire(lock)
		api.WriteU64(c, ctr, 0, api.ReadU64(c, ctr, 0)+1)
		c.Release(lock)
		c.Barrier(bar, 4)
		if got := api.ReadU64(c, ctr, 0); got != 4 {
			t.Errorf("after barrier counter = %d, want 4", got)
		}
	})
}

func TestFetchAddWorks(t *testing.T) {
	s := newSys(t, 2, 256)
	at := s.NewAtomic()
	s.Run(4, func(c api.Ctx) {
		c.FetchAdd(at, 1)
	})
	s.Run(1, func(c api.Ctx) {
		if got := c.FetchAdd(at, 0); got != 4 {
			t.Errorf("atomic = %d, want 4", got)
		}
	})
}

func TestOutOfRangePanics(t *testing.T) {
	s := newSys(t, 1, 64)
	r := s.Alloc("x", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Run(1, func(c api.Ctx) { c.Read(r, 4, make([]byte, 8)) })
}

func TestBadAllocPanics(t *testing.T) {
	s := newSys(t, 1, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Alloc("bad", 0, protocol.Conventional, protocol.DefaultOptions(), nil)
}

func TestNameAndPageSize(t *testing.T) {
	s := newSys(t, 1, 0) // 0 -> default
	if s.Name() != "ivy" || s.PageSize() != DefaultPageSize || s.Nodes() != 1 {
		t.Fatalf("basics: %s %d %d", s.Name(), s.PageSize(), s.Nodes())
	}
}

// TestAccessCountersExactOnCells: Ivy's threads count their page reads
// and writes in cells of their own (stats.Cell), like Munin's. Summed
// over the nodes, reads and writes are exact with every thread parked
// mid-Run and again after the Run folded the cells in. Each thread's
// page is its own, so every access is one local page hit; a word that
// straddles two pages would count twice.
func TestAccessCountersExactOnCells(t *testing.T) {
	const threads, per = 4, 1000
	s := newSys(t, 2, 64)
	r := s.Alloc("lanes", threads*64, protocol.Conventional, protocol.DefaultOptions(), nil)
	total := func(name string) (n int64) {
		for _, node := range s.nodes {
			n += node.C.Get(name)
		}
		return n
	}
	baseR, baseW := total("reads"), total("writes")
	check := func(when string, rounds int64) {
		if got := total("reads") - baseR; got != threads*per*rounds {
			t.Errorf("%s: reads = %d, want %d", when, got, threads*per*rounds)
		}
		if got := total("writes") - baseW; got != threads*per*rounds {
			t.Errorf("%s: writes = %d, want %d", when, got, threads*per*rounds)
		}
	}
	var arrive, leave sync.WaitGroup
	arrive.Add(threads)
	leave.Add(1)
	round := func(c api.Ctx) {
		off := c.ThreadID() * 64
		for k := 0; k < per; k++ {
			api.WriteU64(c, r, off+k%8*8, uint64(k))
			api.ReadU64(c, r, off+k%8*8)
		}
	}
	s.Run(threads, func(c api.Ctx) {
		round(c)
		arrive.Done()
		if c.ThreadID() == 0 {
			arrive.Wait()
			check("mid-Run", 1)
			leave.Done()
		}
		leave.Wait()
		round(c)
	})
	check("after Run", 2)
}
