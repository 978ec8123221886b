// Package stats provides low-overhead counters, histograms and table
// rendering used throughout the Munin runtime and its benchmark harness.
//
// All counters are safe for concurrent use. The runtime bumps a counter
// through its field in a layer's counter struct (counters.go): a
// single atomic add. A Set names counters: a layer binds its struct
// into one (Set.Bind) so they can be read by name, and an increment by
// name (Set.Add) is a lock-free lookup followed by that atomic add. The counters every access of every
// thread bumps (the protocol's reads and writes) go through cells
// instead: a thread attaches one Cell per counter when it starts, adds
// to it with a plain store, and folds it into the counter when it
// exits, so an access neither takes a locked instruction nor writes a
// cache line another thread writes. Snapshots are consistent enough for
// reporting (cross-counter skew is acceptable for traffic accounting)
// and exact whenever the writers are quiescent.
package stats

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"

	"munin/internal/lockrank"
)

// Counter is a monotonically increasing (or explicitly reset) 64-bit
// counter safe for concurrent use. Its value is its own word plus every
// cell attached to it.
type Counter struct {
	v atomic.Int64
	// mu guards cells. It is taken to attach and fold a cell and to read
	// the counter, never to add to it.
	mu    lockrank.Mutex[lockrank.StatsCounter]
	cells []*Cell
	// Pad to a cache line: threads bumping counters of different names
	// must not bounce one line between them.
	_ [24]byte
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Cell is one thread's share of a Counter. Only the thread that
// attached it adds to it, so an add is a plain load and store to a word
// no other thread writes; readers of the counter sum the attached cells.
// The zero value is an unattached cell.
type Cell struct {
	n int64
	c *Counter // the counter it is attached to; nil when unattached
}

// Attach makes cell the calling thread's share of c until the thread
// folds it (Cell.Fold). Only that thread may add through the cell
// (AddCell), and a cell is attached to one counter at a time.
func (c *Counter) Attach(cell *Cell) {
	c.mu.Lock()
	cell.c = c
	c.cells = append(c.cells, cell)
	c.mu.Unlock()
}

// AddCell increments the counter by delta through cell when cell is
// attached to c, and through the counter's own word otherwise — so a
// thread that never attached a cell still counts, at the price of an
// atomic add. Only the cell's own thread may call it with the cell.
func (c *Counter) AddCell(cell *Cell, delta int64) {
	if cell.c == c {
		cell.n += delta
		return
	}
	c.v.Add(delta)
}

// Fold adds the cell's count into its counter's own word and detaches
// the cell, so the count outlives the thread. The cell's thread calls
// it when it exits; folding an unattached cell does nothing.
func (cell *Cell) Fold() {
	c := cell.c
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v.Add(cell.n)
	c.cells = slices.DeleteFunc(c.cells, func(x *Cell) bool { return x == cell })
	cell.n, cell.c = 0, nil
	c.mu.Unlock()
}

// sumCells reads cells that their threads may be adding to as it runs.
// Each cell is one aligned word with a single writer, so a read returns
// a value the cell held (on 64-bit platforms), and the exact count once
// the writer is quiescent — the same promise the rest of a snapshot
// makes. The race detector is told not to report these reads, the one
// place a cell is read by a thread other than its own.
//
//go:norace
func sumCells(cells []*Cell) int64 {
	var n int64
	for _, cell := range cells {
		n += cell.n
	}
	return n
}

// Load returns the current value: the counter's word plus its attached
// cells.
func (c *Counter) Load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v.Load() + sumCells(c.cells)
}

// Reset sets the counter back to zero. Attached cells are left to their
// threads; the counter's word absorbs what they hold.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.v.Store(-sumCells(c.cells))
	c.mu.Unlock()
}

// Set is a named collection of counters. The zero value is ready to use.
// Its counters are those of the layer structs bound into it (Bind) and
// those made by name (Counter, Add); every name must be declared by a
// counter struct.
type Set struct {
	// mu serializes Bind and making a counter by name: it guards the
	// copy-on-write replacement of the published values below, never a
	// lookup or an increment. A published value is never written again.
	mu    lockrank.Mutex[lockrank.StatsSet]
	bound atomic.Pointer[[]reflect.Value]     // the bound layer structs
	made  atomic.Pointer[map[string]*Counter] // the counters made by name
}

func (s *Set) boundLayers() []reflect.Value {
	if p := s.bound.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Set) madeByName() map[string]*Counter {
	if p := s.made.Load(); p != nil {
		return *p
	}
	return nil
}

// lookup returns the named counter, or nil if the set holds none.
func (s *Set) lookup(name string) *Counter {
	if c := s.madeByName()[name]; c != nil {
		return c
	}
	if f, ok := declared[name]; ok {
		for _, v := range s.boundLayers() {
			if v.Type() == f.layer {
				return f.in(v)
			}
		}
	}
	return nil
}

// each calls fn with every counter of the set and its name.
func (s *Set) each(fn func(name string, c *Counter)) {
	for name, c := range s.madeByName() {
		fn(name, c)
	}
	for _, v := range s.boundLayers() {
		for _, f := range fields[v.Type()] {
			fn(f.name, f.in(v))
		}
	}
}

// Bind makes the counters of layer, a pointer to one of the counter
// structs, the set's counters of their names. Binding costs no more
// than recording the pointer: a name finds its field through the
// declarations. It panics if the set already holds a counter of one of
// those names.
func (s *Set) Bind(layer any) {
	v := reflect.ValueOf(layer).Elem()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(fields[v.Type()]) == 0 {
		panic(fmt.Sprintf("stats: %s declares no counters", v.Type()))
	}
	for _, b := range s.boundLayers() {
		if b.Type() == v.Type() {
			panic(fmt.Sprintf("stats: a second %s bound", v.Type()))
		}
	}
	for name := range s.madeByName() {
		if declared[name].layer == v.Type() {
			panic(fmt.Sprintf("stats: counter %q made by name before its struct was bound", name))
		}
	}
	next := append(slices.Clip(s.boundLayers()), v)
	s.bound.Store(&next)
}

// Counter returns the named counter, making it if the set holds none.
// Only making one takes the Set's mutex.
func (s *Set) Counter(name string) *Counter {
	if c := s.lookup(name); c != nil {
		return c
	}
	mustDeclare(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.lookup(name); c != nil {
		return c
	}
	next := maps.Clone(s.madeByName())
	if next == nil {
		next = map[string]*Counter{}
	}
	c := &Counter{}
	next[name] = c
	s.made.Store(&next)
	return c
}

// Add is shorthand for s.Counter(name).Add(delta).
func (s *Set) Add(name string, delta int64) { s.Counter(name).Add(delta) }

// Get returns the value of the named counter: zero if the set does not
// hold it, and a panic if no counter struct declares the name.
func (s *Set) Get(name string) int64 {
	if c := s.lookup(name); c != nil {
		return c.Load()
	}
	mustDeclare(name)
	return 0
}

// Values is a snapshot of counters by name. Get is its checked read.
type Values map[string]int64

// Get returns the named counter's value, and panics if no counter
// struct declares the name.
func (v Values) Get(name string) int64 {
	mustDeclare(name)
	return v[name]
}

// Snapshot returns the value of every counter in the set that is not
// zero, keyed by name.
func (s *Set) Snapshot() Values {
	out := Values{}
	s.each(func(name string, c *Counter) {
		if n := c.Load(); n != 0 {
			out[name] = n
		}
	})
	return out
}

// Reset zeroes every counter in the set.
func (s *Set) Reset() { s.each(func(_ string, c *Counter) { c.Reset() }) }

// Histogram is a fixed-bucket histogram of int64 samples, safe for
// concurrent use. Buckets are defined by their upper bounds; samples
// greater than the last bound land in an overflow bucket.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	n      atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics if bounds is empty or not strictly ascending.
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64
	h.max.Store(-1 << 63)               // MinInt64
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean of the samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest observed sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.n.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observed sample, or 0 with no samples.
func (h *Histogram) Max() int64 {
	if h.n.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) using
// bucket upper bounds as representative values.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(n))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// Buckets returns (bound, count) pairs plus the overflow bucket reported
// with bound = -1.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		b := Bucket{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		} else {
			b.UpperBound = -1
		}
		out = append(out, b)
	}
	return out
}

// Bucket is one histogram bucket.
type Bucket struct {
	UpperBound int64 // -1 for the overflow bucket
	Count      int64
}

func (b Bucket) String() string {
	if b.UpperBound < 0 {
		return fmt.Sprintf("(+Inf: %d)", b.Count)
	}
	return fmt.Sprintf("(<=%d: %d)", b.UpperBound, b.Count)
}
