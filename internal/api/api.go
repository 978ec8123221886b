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

// wordCtx is optionally implemented by a Ctx that serves word-sized
// accesses itself, for the helpers below: internal/core's Ctx reads a
// word of a cached write-once copy without resolving the region again,
// and stages every other word without allocating. size is 4 or 8, and
// the word is big-endian. A Ctx that wraps another — by embedding Ctx —
// does not have these methods, so every access still reaches its Read
// and Write.
type wordCtx interface {
	ReadWord(r RegionID, off, size int) uint64
	WriteWord(r RegionID, off, size int, v uint64)
}

// readWord reads the size-byte word at off.
func readWord(c Ctx, r RegionID, off, size int) uint64 {
	if w, ok := c.(wordCtx); ok {
		return w.ReadWord(r, off, size)
	}
	b := make([]byte, size)
	c.Read(r, off, b)
	if size == 8 {
		return binary.BigEndian.Uint64(b)
	}
	return uint64(binary.BigEndian.Uint32(b))
}

// writeWord writes v as the size-byte word at off.
func writeWord(c Ctx, r RegionID, off, size int, v uint64) {
	if w, ok := c.(wordCtx); ok {
		w.WriteWord(r, off, size, v)
		return
	}
	b := make([]byte, size)
	if size == 8 {
		binary.BigEndian.PutUint64(b, v)
	} else {
		binary.BigEndian.PutUint32(b, uint32(v))
	}
	c.Write(r, off, b)
}

// ReadU64 reads a big-endian uint64 at off.
func ReadU64(c Ctx, r RegionID, off int) uint64 { return readWord(c, r, off, 8) }

// WriteU64 writes a big-endian uint64 at off.
func WriteU64(c Ctx, r RegionID, off int, v uint64) { writeWord(c, r, off, 8, v) }

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
func ReadU32(c Ctx, r RegionID, off int) uint32 { return uint32(readWord(c, r, off, 4)) }

// WriteU32 writes a big-endian uint32 at off.
func WriteU32(c Ctx, r RegionID, off int, v uint32) { writeWord(c, r, off, 4, uint64(v)) }
