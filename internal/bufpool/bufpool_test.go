package bufpool

import (
	"fmt"
	"runtime/debug"
	"testing"
)

func TestGetCapacityAndClass(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 1 << 20} {
		b := Get(n)
		if len(b.B) != 0 {
			t.Fatalf("Get(%d): len=%d, want 0", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Fatalf("Get(%d): cap=%d < request", n, cap(b.B))
		}
		b.Release()
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	b := Get(maxClassBytes + 1)
	if b.class != -1 {
		t.Fatalf("oversize buffer got class %d, want -1", b.class)
	}
	if cap(b.B) < maxClassBytes+1 {
		t.Fatalf("oversize cap=%d too small", cap(b.B))
	}
	b.Release() // must not panic or pool it
}

func TestReuseSameClass(t *testing.T) {
	b := Get(128)
	b.B = append(b.B, make([]byte, 100)...)
	p := &b.B[0]
	b.Release()
	c := Get(128)
	defer c.Release()
	if len(c.B) != 0 {
		t.Fatalf("reused buffer has len %d, want 0", len(c.B))
	}
	// Same class and nothing else contending: the pool should hand the
	// same backing storage straight back on this goroutine.
	if cap(c.B) >= 1 && &c.B[:1][0] != p {
		t.Log("pool did not reuse backing array (legal, but unexpected in a quiet test)")
	}
}

func TestReleaseNil(t *testing.T) {
	var b *Buffer
	b.Release() // no-op
}

// TestSteadyStateZeroAllocs pins the arena's own hot path: once warm,
// Get+Release must not touch the heap. GC is disabled around the
// measurement because a collection clears sync.Pool and would show up
// as a spurious refill allocation.
func TestSteadyStateZeroAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 16; i++ {
		Get(4096).Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(4096)
		b.B = append(b.B, 1, 2, 3)
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f/op, want 0", allocs)
	}
}

// fakeT records what CheckBalance reports and runs its cleanups on
// demand.
type fakeT struct {
	cleanups []func()
	errors   []string
}

func (f *fakeT) Helper()           {}
func (f *fakeT) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

func TestCheckBalance(t *testing.T) {
	for _, leak := range []bool{false, true} {
		f := &fakeT{}
		CheckBalance(f)
		b := Get(64)
		if !leak {
			b.Release()
		}
		f.cleanups[0]()
		if got := len(f.errors) > 0; got != leak {
			t.Fatalf("leak=%v: CheckBalance reported %q", leak, f.errors)
		}
	}
}

func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(4096)
		buf.Release()
	}
}
