//go:build !race

package lockrank

// record is empty without the race detector: a Mutex is a sync.Mutex.
type record struct{}

// Lock locks m.
func (m *Mutex[R]) Lock() { m.mu.Lock() }

// LockOrdered locks m, one of several locks of rank R the caller takes
// in ascending key order.
func (m *Mutex[R]) LockOrdered(key uint64) { m.mu.Lock() }

// Unlock unlocks m.
func (m *Mutex[R]) Unlock() { m.mu.Unlock() }

// Blocking marks the entry of a blocking rendezvous. Without the race
// detector it does nothing.
func Blocking() {}
