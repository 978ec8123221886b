package stats

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatalf("after reset = %d, want 0", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestSetCreatesAndAccumulates(t *testing.T) {
	var s Set
	s.Add(CFaultRead, 3)
	s.Add(CFaultRead, 4)
	s.Add(CTwin, 100)
	if got := s.Get(CFaultRead); got != 7 {
		t.Fatalf("fault.read = %d, want 7", got)
	}
	if got := s.Get("evict"); got != 0 {
		t.Fatalf("evict, never added = %d, want 0", got)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[CTwin] != 100 || snap.Get(CFaultRead) != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	s.Reset()
	if s.Get(CFaultRead) != 0 || s.Get(CTwin) != 0 || len(s.Snapshot()) != 0 {
		t.Fatalf("reset failed: %v", s.Snapshot())
	}
}

// TestUndeclaredNameFails: a name no counter struct declares is a typo,
// and every by-name access to it panics instead of reading 0.
func TestUndeclaredNameFails(t *testing.T) {
	var s Set
	s.Add(CReads, 1)
	for what, access := range map[string]func(){
		"Set.Get":     func() { s.Get("raeds") },
		"Set.Add":     func() { s.Add("raeds", 1) },
		"Set.Counter": func() { s.Counter("raeds") },
		"Values.Get":  func() { s.Snapshot().Get("raeds") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"raeds"`) {
					t.Errorf("%s of an undeclared name: recovered %v, want a panic naming it", what, r)
				}
			}()
			access()
		}()
	}
}

// TestBindNamesEveryField: a bound struct's counters are the set's
// counters under their declared names, per-class arrays included, and
// a second Bind of the same names panics.
func TestBindNamesEveryField(t *testing.T) {
	var s Set
	var p Protocol
	var tr Transport
	s.Bind(&p)
	s.Bind(&tr)
	p.HomeDiff.Inc()
	tr.Msgs[2].Add(3)
	tr.Bytes[5].Add(64)
	tr.CoalescedBy[1].Inc()
	want := Values{"home.diff": 1, "coherence": 3, "app.bytes": 64, "wire.coalesced.lock": 1}
	if got := s.Snapshot(); !maps.Equal(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for _, name := range Registered() {
		if l := LayerOf(name); (l == "protocol" || l == "transport") && s.lookup(name) == nil {
			t.Errorf("%s counter %q is not bound", l, name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("binding a struct's names twice did not panic")
		}
	}()
	s.Bind(&Protocol{})
}

// TestReaderConstantsDeclared: the names readers outside the runtime
// look counters up by are declared, each by the layer that counts it.
func TestReaderConstantsDeclared(t *testing.T) {
	for _, name := range []string{CReads, CFaultRead, CFaultWrite, CFetchRetry, CTwin, CBatchSent, CBatchObjs, CBatchBytes, CApplyGap, CInvReceived, CHomeRelay} {
		if LayerOf(name) != "protocol" {
			t.Errorf("%q: layer %q, want protocol", name, LayerOf(name))
		}
	}
	for _, name := range []string{CWireWrites, CWireQueueStallNs} {
		if LayerOf(name) != "transport" {
			t.Errorf("%q: layer %q, want transport", name, LayerOf(name))
		}
	}
}

func TestSetConcurrentSameName(t *testing.T) {
	var s Set
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Add(CReads, 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(CReads); got != 4000 {
		t.Fatalf("reads = %d, want 4000", got)
	}
}

// TestSetConcurrentRegistration: registration publishes a copy of the
// name table, and a copy taken while another name is being added must
// not lose it — every name and every increment survives.
func TestSetConcurrentRegistration(t *testing.T) {
	var s Set
	const workers, names, per = 8, 40, 50
	declared := Registered()[:names]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				for i := 0; i < names; i++ {
					s.Add(declared[(i+w)%names], 1)
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if len(snap) != names {
		t.Fatalf("%d names registered, want %d", len(snap), names)
	}
	for name, v := range snap {
		if v != workers*per {
			t.Fatalf("%s = %d, want %d", name, v, workers*per)
		}
	}
}

// TestCellsAttachAndFold: a counter's value is its word plus its
// attached cells — exact while the cells' threads are parked mid-run,
// and still exact once every thread has folded its cell in and gone.
func TestCellsAttachAndFold(t *testing.T) {
	var s Set
	c := s.Counter(CReads)
	const workers, per = 8, 1000
	var arrive, leave, done sync.WaitGroup
	arrive.Add(workers)
	leave.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			var cell Cell
			c.Attach(&cell)
			defer cell.Fold()
			for j := 0; j < per; j++ {
				c.AddCell(&cell, 1)
			}
			arrive.Done()
			leave.Wait()
			for j := 0; j < per; j++ {
				c.AddCell(&cell, 1)
			}
		}()
	}
	arrive.Wait()
	s.Add(CReads, 5) // by name: lands in the counter's own word
	if got, want := s.Get(CReads), int64(workers*per+5); got != want {
		t.Fatalf("mid-run Get = %d, want %d", got, want)
	}
	leave.Done()
	done.Wait()
	if got, want := s.Snapshot()[CReads], int64(2*workers*per+5); got != want {
		t.Fatalf("after fold Snapshot = %d, want %d", got, want)
	}
	if len(c.cells) != 0 {
		t.Fatalf("%d cells still attached after every thread folded", len(c.cells))
	}
}

// TestCellUnattachedAddsToWord: a thread that never attached a cell —
// or adds through a cell attached to another counter — still counts, in
// the counter's own word.
func TestCellUnattachedAddsToWord(t *testing.T) {
	var s Set
	c, other := s.Counter("writes"), s.Counter(CTwin)
	var loose, foreign Cell
	other.Attach(&foreign)
	c.AddCell(&loose, 3)
	c.AddCell(&foreign, 4)
	if got := c.Load(); got != 7 {
		t.Fatalf("c = %d, want 7", got)
	}
	if got := other.Load(); got != 0 {
		t.Fatalf("other = %d, want 0: a cell counts only for the counter it is attached to", got)
	}
	loose.Fold() // unattached: nothing to do
	foreign.Fold()
	if got := c.Load() + other.Load(); got != 7 {
		t.Fatalf("after folds c+other = %d, want 7", got)
	}
}

// TestCellReset: Reset zeroes a counter whose cells are still attached
// without writing them, and counting through them resumes from zero.
func TestCellReset(t *testing.T) {
	var s Set
	c := s.Counter("writes")
	var cell Cell
	c.Attach(&cell)
	c.AddCell(&cell, 10)
	c.Add(2)
	s.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset = %d, want 0", got)
	}
	c.AddCell(&cell, 3)
	cell.Fold()
	if got := c.Load(); got != 3 {
		t.Fatalf("after Reset, add and fold = %d, want 3", got)
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 5, 10, 11, 100, 999, 5000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Min() != 1 || h.Max() != 5000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	b := h.Buckets()
	wantCounts := []int64{3, 2, 1, 1}
	if len(b) != 4 {
		t.Fatalf("buckets = %v", b)
	}
	for i, w := range wantCounts {
		if b[i].Count != w {
			t.Fatalf("bucket %d (%s) count = %d, want %d", i, b[i], b[i].Count, w)
		}
	}
	if got := h.Sum(); got != 1+5+10+11+100+999+5000 {
		t.Fatalf("sum = %d", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8, 16, 32)
	for i := int64(1); i <= 32; i++ {
		h.Observe(i)
	}
	// Median of 1..32 should land at a mid-to-upper bucket bound; the
	// estimator returns bucket upper bounds, so allow [8,32].
	q := h.Quantile(0.5)
	if q < 8 || q > 32 {
		t.Fatalf("median estimate = %d, want within [8,32]", q)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatalf("quantiles not monotone")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	// Property: Mean()*Count() == Sum() (within float error) and
	// Min() <= Mean() <= Max() for any non-empty sample set.
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(16, 256, 4096, 65536)
		for _, v := range vals {
			h.Observe(int64(v))
		}
		mean := h.Mean()
		if mean < float64(h.Min()) || mean > float64(h.Max()) {
			return false
		}
		diff := mean*float64(h.Count()) - float64(h.Sum())
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(10, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for j := int64(0); j < 100; j++ {
				h.Observe(base + j)
			}
		}(int64(i))
	}
	wg.Wait()
	if h.Count() != 800 {
		t.Fatalf("count = %d, want 800", h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Traffic", "app", "msgs", "bytes")
	tab.AddRow("matmul", 10, 2048)
	tab.AddRow("life", 7, 99)
	out := tab.String()
	if !strings.Contains(out, "Traffic") || !strings.Contains(out, "matmul") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tab.NumRows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := NewTable("", "x")
	tab.AddRow(3.14159)
	if !strings.Contains(tab.String(), "3.14") {
		t.Fatalf("float not formatted: %q", tab.String())
	}
}

func ExampleTable() {
	tab := NewTable("demo", "k", "v")
	tab.AddRow("a", 1)
	fmt.Print(tab.String())
	// Output:
	// demo
	// k  v
	// -  -
	// a  1
}

// BenchmarkSetAdd: an increment by name from one thread and from two
// (-cpu 1,2). "distinct" is the runtime's pattern — co-located threads
// on the fault and flush paths bump different names at any instant —
// and costs a lock-free lookup plus an uncontended atomic add. "same"
// is two threads hammering one counter word: the cache line bounces
// between the cores on every add, which is why the counters every
// access bumps go through per-thread cells (AddCell) instead.
func BenchmarkSetAdd(b *testing.B) {
	names := []string{CFaultRead, CFaultWrite, CTwin, "diff.sent"}
	for _, mode := range []string{"distinct", "same"} {
		b.Run(mode, func(b *testing.B) {
			var s Set
			for _, n := range names {
				s.Add(n, 0)
			}
			var next atomic.Int32
			b.RunParallel(func(pb *testing.PB) {
				name := names[0]
				if mode == "distinct" {
					name = names[int(next.Add(1))%len(names)]
				}
				for pb.Next() {
					s.Add(name, 1)
				}
			})
		})
	}
}

// BenchmarkCounterAdd: the increment every access makes, through the
// calling thread's attached cell and through the counter's word, from
// one thread and from two (-cpu 1,2).
func BenchmarkCounterAdd(b *testing.B) {
	for _, mode := range []string{"cell", "word"} {
		b.Run(mode, func(b *testing.B) {
			var c Counter
			b.RunParallel(func(pb *testing.PB) {
				var cell Cell
				if mode == "cell" {
					c.Attach(&cell)
					defer cell.Fold()
				}
				for pb.Next() {
					c.AddCell(&cell, 1)
				}
			})
		})
	}
}
