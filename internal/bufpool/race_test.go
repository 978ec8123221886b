//go:build race

package bufpool

import (
	"fmt"
	"strings"
	"testing"
)

// getPanic returns what Get(n) panicked with, or nil and the buffer.
func getPanic(n int) (b *Buffer, r any) {
	defer func() { r = recover() }()
	return Get(n), nil
}

// writeAfterRelease releases a buffer of n bytes, lets write touch it,
// and returns what the next Get of that buffer panicked with. Under
// -race the pool drops a quarter of what it is given, so it tries until
// the pool hands the buffer back. Each caller uses its own size, so a
// dropped or stranded written buffer meets no other test.
func writeAfterRelease(t *testing.T, n int, write func(*Buffer)) string {
	t.Helper()
	for range 100 {
		b := Get(n)
		b.Release()
		write(b)
		c, r := getPanic(n)
		if r != nil {
			return fmt.Sprint(r)
		}
		if c == b {
			t.Fatal("Get handed back a buffer written after its Release without a panic")
		}
		c.Release()
	}
	t.Fatal("the pool never handed a released buffer back in 100 tries")
	return ""
}

func TestDoubleReleasePanics(t *testing.T) {
	for _, n := range []int{64, maxClassBytes + 1} {
		b := Get(n)
		b.Release()
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "already released") {
					t.Fatalf("second Release of a %d-byte buffer: panic %q, want one saying already released", n, r)
				}
			}()
			b.Release()
		}()
	}
}

func TestByteWrittenAfterReleaseIsReported(t *testing.T) {
	r := writeAfterRelease(t, 1<<17, func(b *Buffer) { b.B[:cap(b.B)][100] = 7 })
	if !strings.Contains(r, "byte 100 of a 131072-byte buffer written after Release (0x7)") {
		t.Fatalf("panic %q, want the written byte named", r)
	}
}

func TestBReassignedAfterReleaseIsReported(t *testing.T) {
	r := writeAfterRelease(t, 1<<18, func(b *Buffer) { b.B = append(b.B, 1) })
	if !strings.Contains(r, "B reassigned after Release") {
		t.Fatalf("panic %q, want B named", r)
	}
}

// The disciplined shapes pass: a plain Get-write-Release cycle, and a
// Release deferred past the writes.
func TestCleanCyclesPass(t *testing.T) {
	deferred := func() {
		b := Get(1 << 16)
		defer b.Release()
		b.B = append(b.B, make([]byte, 1<<16)...)
	}
	for range 100 {
		b := Get(1 << 16)
		b.B = append(b.B, 1, 2, 3)
		b.Release()
		deferred()
	}
}
