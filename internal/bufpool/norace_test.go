//go:build !race

package bufpool

import (
	"testing"
	"unsafe"
)

// Without the race detector a Buffer carries no ownership record: it is
// exactly its slice and its class.
func TestBufferCarriesNothingWithoutRace(t *testing.T) {
	want := unsafe.Sizeof(struct {
		B     []byte
		class int8
	}{})
	if got := unsafe.Sizeof(Buffer{}); got != want {
		t.Fatalf("Sizeof(Buffer) = %d, want %d", got, want)
	}
}
