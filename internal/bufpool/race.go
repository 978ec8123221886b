//go:build race

package bufpool

import (
	"bytes"
	"fmt"
	"unsafe"
)

// poison fills every byte of a released buffer until the pool hands it
// out again.
var poison = bytes.Repeat([]byte{0xdb}, maxClassBytes)

// owner is what a Buffer remembers under the race detector: whether it
// is released, and what Release left in B.
type owner struct {
	released bool
	full     []byte // B[:cap(B)] at Release, poisoned
}

// released panics on a second Release and poisons a pooled buffer's
// whole capacity.
func (b *Buffer) released() {
	if b.own.released {
		panic("bufpool: Release of a buffer already released")
	}
	b.own.released = true
	if b.class >= 0 {
		b.own.full = b.B[:min(cap(b.B), len(poison))]
		copy(b.own.full, poison)
	}
}

// taken panics if B or any byte behind it changed since the Release
// that put b in the pool: someone wrote the buffer after handing it
// back.
func (b *Buffer) taken() {
	full := b.own.full
	if unsafe.SliceData(b.B) != unsafe.SliceData(full) || len(b.B) != 0 || cap(b.B) != cap(full) {
		panic(fmt.Sprintf("bufpool: B reassigned after Release (len %d cap %d, released with len 0 cap %d)", len(b.B), cap(b.B), cap(full)))
	}
	if !bytes.Equal(full, poison[:len(full)]) {
		i := 0
		for full[i] == poison[i] {
			i++
		}
		panic(fmt.Sprintf("bufpool: byte %d of a %d-byte buffer written after Release (%#x)", i, cap(full), full[i]))
	}
	b.own = owner{}
}
