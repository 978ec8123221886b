//go:build !race

package bufpool

// owner is empty without the race detector: a Buffer is its slice and
// its class.
type owner struct{}

// released marks b returned to its pool. Without the race detector it
// does nothing.
func (b *Buffer) released() {}

// taken checks a buffer the pool hands out. Without the race detector
// it does nothing.
func (b *Buffer) taken() {}
