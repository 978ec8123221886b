// Package study reproduces the paper's Section 2: the analysis of
// sharing behaviour in the six study programs. A tracing wrapper records
// every shared-memory access and synchronization operation the programs
// make; the classifier then assigns each shared object to one of the
// paper's access-pattern categories using rules derived directly from
// the paper's definitions.
//
// The headline findings this package regenerates:
//   - very few objects (and very few accesses) are General Read-Write;
//   - the overwhelming majority of accesses are reads, except during
//     initialization;
//   - the latency between accesses to synchronization objects is much
//     higher than between accesses to ordinary shared data.
package study

import (
	"sync/atomic"

	"munin/internal/api"
	"munin/internal/dlock"
	"munin/internal/lockrank"
	"munin/internal/protocol"
)

// Class is an observed access-pattern category (paper Section 2).
type Class string

// The categories from the paper.
const (
	ClassPrivate          Class = "private"
	ClassWriteOnce        Class = "write-once"
	ClassResult           Class = "result"
	ClassProducerConsumer Class = "producer-consumer"
	ClassMigratory        Class = "migratory"
	ClassReadMostly       Class = "read-mostly"
	ClassWriteMany        Class = "write-many"
	ClassGeneralRW        Class = "general-rw"
)

// access is one recorded shared-memory access.
type access struct {
	ord    int64 // global order stamp
	thread int
	write  bool
}

// objTrace accumulates a single region's accesses.
type objTrace struct {
	name     string
	hint     protocol.Annotation
	mu       lockrank.Mutex[lockrank.Trace]
	accesses []access
}

// Tracer wraps an api.System, recording all accesses made through the
// contexts it hands out. It implements api.System.
type Tracer struct {
	inner api.System

	ord atomic.Int64 // global logical clock (one tick per event)

	mu      lockrank.Mutex[lockrank.Tracer]
	objs    []*objTrace
	syncOps []syncOp

	initEnd atomic.Int64 // ordinal of the first synchronization op
}

type syncOp struct {
	ord    int64
	thread int
	kind   string // "lock", "unlock", "barrier", "fetchadd"
	id     uint64
}

var _ api.System = (*Tracer)(nil)

// NewTracer wraps sys.
func NewTracer(sys api.System) *Tracer {
	t := &Tracer{inner: sys}
	t.initEnd.Store(int64(1) << 62)
	return t
}

// Name implements api.System.
func (t *Tracer) Name() string { return t.inner.Name() + "+trace" }

// Nodes implements api.System.
func (t *Tracer) Nodes() int { return t.inner.Nodes() }

// Alloc implements api.System.
func (t *Tracer) Alloc(name string, size int, hint protocol.Annotation, opts protocol.Options, init []byte) api.RegionID {
	r := t.inner.Alloc(name, size, hint, opts, init)
	t.mu.Lock()
	for len(t.objs) <= int(r) {
		t.objs = append(t.objs, nil)
	}
	t.objs[r] = &objTrace{name: name, hint: hint}
	t.mu.Unlock()
	return r
}

// NewLock implements api.System.
func (t *Tracer) NewLock() dlock.LockID { return t.inner.NewLock() }

// NewBarrier implements api.System.
func (t *Tracer) NewBarrier() dlock.BarrierID { return t.inner.NewBarrier() }

// NewAtomic implements api.System.
func (t *Tracer) NewAtomic() dlock.AtomicID { return t.inner.NewAtomic() }

// Run implements api.System.
func (t *Tracer) Run(nthreads int, body func(c api.Ctx)) {
	t.inner.Run(nthreads, func(c api.Ctx) {
		body(&tracedCtx{Ctx: c, t: t})
	})
}

// Messages implements api.System.
func (t *Tracer) Messages() int64 { return t.inner.Messages() }

// Bytes implements api.System.
func (t *Tracer) Bytes() int64 { return t.inner.Bytes() }

// Close implements api.System.
func (t *Tracer) Close() { t.inner.Close() }

func (t *Tracer) record(r api.RegionID, thread int, write bool) {
	ord := t.ord.Add(1)
	t.mu.Lock()
	o := t.objs[r]
	t.mu.Unlock()
	o.mu.Lock()
	o.accesses = append(o.accesses, access{ord: ord, thread: thread, write: write})
	o.mu.Unlock()
}

func (t *Tracer) recordSync(kind string, id uint64, thread int) {
	ord := t.ord.Add(1)
	// First synchronization marks the end of the initialization phase
	// (the paper observes accesses are read-dominated *except during
	// initialization*).
	for {
		cur := t.initEnd.Load()
		if cur <= ord || t.initEnd.CompareAndSwap(cur, ord) {
			break
		}
	}
	t.mu.Lock()
	t.syncOps = append(t.syncOps, syncOp{ord: ord, thread: thread, kind: kind, id: id})
	t.mu.Unlock()
}

type tracedCtx struct {
	api.Ctx
	t *Tracer
}

func (c *tracedCtx) Read(r api.RegionID, off int, buf []byte) {
	c.t.record(r, c.ThreadID(), false)
	c.Ctx.Read(r, off, buf)
}

func (c *tracedCtx) Write(r api.RegionID, off int, data []byte) {
	c.t.record(r, c.ThreadID(), true)
	c.Ctx.Write(r, off, data)
}

func (c *tracedCtx) Acquire(l dlock.LockID) {
	c.t.recordSync("lock", uint64(l), c.ThreadID())
	c.Ctx.Acquire(l)
}

func (c *tracedCtx) Release(l dlock.LockID) {
	c.t.recordSync("unlock", uint64(l), c.ThreadID())
	c.Ctx.Release(l)
}

func (c *tracedCtx) Barrier(b dlock.BarrierID, n int) {
	c.t.recordSync("barrier", uint64(b), c.ThreadID())
	c.Ctx.Barrier(b, n)
}

func (c *tracedCtx) FetchAdd(a dlock.AtomicID, delta int64) int64 {
	c.t.recordSync("fetchadd", uint64(a), c.ThreadID())
	return c.Ctx.FetchAdd(a, delta)
}
