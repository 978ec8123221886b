// Package bufpool is the buffer arena behind the zero-allocation flush
// pipeline: a set of size-classed sync.Pools handing out reusable byte
// buffers for update span data and marshalled message bodies.
//
// The hot path discipline (see docs/ARCHITECTURE.md, "Buffer ownership
// & lifecycle") is strict single-owner: whoever holds the *Buffer may
// write B and must either pass ownership on or call Release exactly
// once. Pools store *Buffer handles, not raw []byte — putting a slice
// into a sync.Pool would box it into an interface and allocate on every
// Put, which is precisely the hot-path allocation this package exists
// to remove.
//
// Built with -race, as every race run in CI is, a Buffer checks that
// discipline itself (race.go): a second Release panics, and Release
// fills the buffer's whole capacity with a poison byte that the next Get
// of that buffer verifies, so a write after Release on the releasing
// goroutine — which the race detector cannot see — panics there.
// Without -race the checks compile to nothing. CheckBalance covers the
// third rule, that every Get reaches a Release: tests assert the
// counters balance once a cluster has closed.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minClassBytes to maxClassBytes.
// Requests above the largest class fall through to a plain allocation
// that is dropped on Release (pooling pathological sizes would pin
// memory for no steady-state benefit).
const (
	minClassShift = 6  // 64 B: a small diff span or control payload
	maxClassShift = 20 // 1 MiB: comfortably above any benchmarked object
	numClasses    = maxClassShift - minClassShift + 1
	minClassBytes = 1 << minClassShift
	maxClassBytes = 1 << maxClassShift
)

// Buffer is one pooled byte buffer. B always has length zero and
// capacity at least the size requested from Get; owners extend it with
// append or by reslicing within capacity.
type Buffer struct {
	own   owner // empty without -race
	B     []byte
	class int8 // size-class index; -1 for oversize (not pooled)
}

var pools [numClasses]sync.Pool

// Counters observe pool behaviour (they are not part of ownership):
// gets, releases, fresh allocations (pool miss or post-GC refill), and
// oversize requests that bypassed the pool entirely.
var gets, puts, news, oversize atomic.Int64

// classFor returns the smallest class index whose capacity holds n, or
// -1 if n exceeds the largest class.
func classFor(n int) int8 {
	c := int8(0)
	size := minClassBytes
	for size < n {
		size <<= 1
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a buffer with len(B) == 0 and cap(B) >= n. The caller
// owns it until Release (or until ownership is explicitly handed to
// another stage, e.g. the transport writer via SendOwned).
func Get(n int) *Buffer {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		oversize.Add(1)
		return &Buffer{B: make([]byte, 0, n), class: -1}
	}
	if v := pools[c].Get(); v != nil {
		b := v.(*Buffer)
		b.taken()
		b.B = b.B[:0]
		return b
	}
	news.Add(1)
	return &Buffer{B: make([]byte, 0, minClassBytes<<c), class: c}
}

// Release returns the buffer to its pool. It must be called exactly
// once by the final owner; the buffer (and any slice aliasing B) must
// not be touched afterwards. Releasing nil is a no-op so owners can be
// handed around as optional.
func (b *Buffer) Release() {
	if b == nil {
		return
	}
	puts.Add(1)
	b.released()
	if b.class < 0 {
		return // oversize: let the GC have it
	}
	b.B = b.B[:0]
	pools[b.class].Put(b)
}

// Stats returns the arena counters: Get calls, Release calls, fresh
// allocations (misses), and oversize bypasses. A steady-state hot path
// should hold news and oversize flat while gets and puts climb.
func Stats() (getN, putN, newN, oversizeN int64) {
	return gets.Load(), puts.Load(), news.Load(), oversize.Load()
}

// CheckBalance fails t unless, by the time t's cleanups run, every
// buffer Get handed out since the call has come back through Release.
// Call it before the test builds its cluster: cleanups run last-in
// first-out, so the check then runs after the cluster's Close.
func CheckBalance(t interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}) {
	t.Helper()
	start := gets.Load() - puts.Load()
	t.Cleanup(func() {
		if out := gets.Load() - puts.Load() - start; out != 0 {
			t.Errorf("bufpool: gets - releases moved by %d between the test's start and its cleanup: a buffer was dropped without Release", out)
		}
	})
}
