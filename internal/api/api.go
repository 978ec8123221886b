// Package api defines the distributed-shared-memory programming
// interface that both the Munin runtime (internal/core) and the Ivy
// baseline (internal/ivy) implement. The study applications are written
// against this interface only, so the identical program runs over either
// system — that is what makes the paper's traffic comparisons apples to
// apples.
package api

import (
	"encoding/binary"
	"math"

	"munin/internal/dlock"
	"munin/internal/protocol"
)

// RegionID names an allocated shared region (an object in Munin, a
// range of pages in Ivy).
type RegionID int

// System is a running DSM instance over a simulated cluster.
type System interface {
	// Name identifies the implementation ("munin", "ivy", ...).
	Name() string
	// Nodes returns the number of processors.
	Nodes() int
	// Alloc creates a shared region. Must be called from setup code
	// before Run. The hint is Munin's type-specific annotation; Ivy
	// ignores it (its coherence is one-size-fits-all, which is the
	// point of the comparison). opts tunes placement and protocol
	// details — including, via opts.Engine, which coherence engine
	// serves the object (Munin's directory machine or the Tardis-style
	// lease engine for read-mostly data); implementations may ignore
	// fields they have no use for.
	Alloc(name string, size int, hint protocol.Annotation, opts protocol.Options, init []byte) RegionID
	// NewLock, NewBarrier and NewAtomic create distributed
	// synchronization objects (shared by both systems; Munin §3.3.8).
	NewLock() dlock.LockID
	NewBarrier() dlock.BarrierID
	NewAtomic() dlock.AtomicID
	// Run executes body on nthreads threads spread over the cluster
	// and waits for them. Each thread's delayed update queue is
	// flushed at thread exit.
	Run(nthreads int, body func(c Ctx))
	// Messages and Bytes report total wire traffic so far.
	Messages() int64
	Bytes() int64
	// Close shuts the system down.
	Close()
}

// Ctx is a thread's handle to shared memory and synchronization. All
// data access goes through Read/Write — the object-granularity stand-in
// for the paper's page-fault interception.
type Ctx interface {
	// ThreadID is this thread's dense index; NThreads the team size;
	// Node the processor it is placed on.
	ThreadID() int
	NThreads() int
	Node() int

	// Read copies from the region into buf, faulting the protocol as
	// needed. Write stores into the region; loose protocols buffer it
	// in the thread's delayed update queue until synchronization.
	Read(r RegionID, off int, buf []byte)
	Write(r RegionID, off int, data []byte)

	// Acquire/Release operate on a distributed lock; Barrier waits
	// for n participants; FetchAdd atomically adds to a distributed
	// counter. Every synchronization operation flushes the thread's
	// delayed update queue first (paper §3.2).
	Acquire(l dlock.LockID)
	Release(l dlock.LockID)
	Barrier(b dlock.BarrierID, n int)
	FetchAdd(a dlock.AtomicID, delta int64) int64

	// Flush forces the delayed update queue out without synchronizing.
	Flush()
}

// --- Typed access helpers -------------------------------------------

// scratcher is optionally implemented by a Ctx that owns a staging word
// the helpers below may borrow for the duration of one call. A buffer
// passed through the Ctx interface escapes, so without it every typed
// access heap-allocates its 8 bytes; a Ctx is single-threaded by
// contract, which makes a per-Ctx word safe to reuse.
type scratcher interface {
	Scratch() *[8]byte
}

// word returns an n-byte staging buffer for one access through c.
func word(c Ctx, n int) []byte {
	if s, ok := c.(scratcher); ok {
		return s.Scratch()[:n]
	}
	return make([]byte, n)
}

// ReadU64 reads a big-endian uint64 at off.
func ReadU64(c Ctx, r RegionID, off int) uint64 {
	b := word(c, 8)
	c.Read(r, off, b)
	return binary.BigEndian.Uint64(b)
}

// WriteU64 writes a big-endian uint64 at off.
func WriteU64(c Ctx, r RegionID, off int, v uint64) {
	b := word(c, 8)
	binary.BigEndian.PutUint64(b, v)
	c.Write(r, off, b)
}

// ReadI64 reads a big-endian int64 at off.
func ReadI64(c Ctx, r RegionID, off int) int64 { return int64(ReadU64(c, r, off)) }

// WriteI64 writes a big-endian int64 at off.
func WriteI64(c Ctx, r RegionID, off int, v int64) { WriteU64(c, r, off, uint64(v)) }

// ReadF64 reads a float64 at off.
func ReadF64(c Ctx, r RegionID, off int) float64 {
	return math.Float64frombits(ReadU64(c, r, off))
}

// WriteF64 writes a float64 at off.
func WriteF64(c Ctx, r RegionID, off int, v float64) {
	WriteU64(c, r, off, math.Float64bits(v))
}

// ReadU32 reads a big-endian uint32 at off.
func ReadU32(c Ctx, r RegionID, off int) uint32 {
	b := word(c, 4)
	c.Read(r, off, b)
	return binary.BigEndian.Uint32(b)
}

// WriteU32 writes a big-endian uint32 at off.
func WriteU32(c Ctx, r RegionID, off int, v uint32) {
	b := word(c, 4)
	binary.BigEndian.PutUint32(b, v)
	c.Write(r, off, b)
}
