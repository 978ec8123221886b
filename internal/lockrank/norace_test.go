//go:build !race

package lockrank_test

import (
	"sync"
	"testing"
	"unsafe"

	"munin/internal/lockrank"
)

// Without the race detector a ranked mutex is a sync.Mutex: no word is
// added to any struct that carries one.
func TestMutexIsASyncMutex(t *testing.T) {
	if got, want := unsafe.Sizeof(lockrank.Mutex[lockrank.Obj]{}), unsafe.Sizeof(sync.Mutex{}); got != want {
		t.Fatalf("Sizeof(Mutex) = %d, want %d", got, want)
	}
}

func BenchmarkLockUnlock(b *testing.B) {
	var m lockrank.Mutex[lockrank.Obj]
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}
