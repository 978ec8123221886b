//go:build race

package lockrank

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// record is what a Mutex remembers under the race detector: the
// goroutine that holds it, so Unlock finds the list the lock is on even
// when another goroutine unlocks it.
type record struct{ gid int64 }

// holding is one lock on a goroutine's list.
type holding struct {
	m       unsafe.Pointer
	r       rank
	key     uint64
	ordered bool
}

// goroutine is the list of locks one goroutine holds. It is in the
// table while the list is not empty.
type goroutine struct {
	gid  int64
	held []holding
	next *goroutine
}

// table maps a goroutine to its list. Its lock is taken with the race
// detector's synchronization events off, and its data is touched only
// by go:norace functions that call nothing the runtime instruments: the
// bookkeeping adds no happens-before edge between goroutines, which
// would hide their real races from the detector.
var table struct {
	mu      sync.Mutex
	buckets [256]*goroutine
	free    *goroutine
}

// Lock locks m, after checking m's rank against the caller's locks.
func (m *Mutex[R]) Lock() { m.lock(false, 0) }

// LockOrdered locks m, one of several locks of rank R the caller takes
// in ascending key order (an object's ID). A lock of rank R already held
// must have been taken the same way with a smaller key.
func (m *Mutex[R]) LockOrdered(key uint64) { m.lock(true, key) }

func (m *Mutex[R]) lock(ordered bool, key uint64) {
	var r R
	g := goid()
	h := holding{m: unsafe.Pointer(m), r: r, key: key, ordered: ordered}
	runtime.RaceDisable()
	table.mu.Lock()
	bad, ok := acquire(g, h)
	table.mu.Unlock()
	runtime.RaceEnable()
	if !ok {
		panic(fmt.Sprintf("lockrank: %s taken while holding %s", describe(h), describe(bad)))
	}
	m.mu.Lock()
	m.rec.gid = g
}

// Unlock unlocks m.
func (m *Mutex[R]) Unlock() {
	g := m.rec.gid
	runtime.RaceDisable()
	table.mu.Lock()
	release(g, unsafe.Pointer(m))
	table.mu.Unlock()
	runtime.RaceEnable()
	m.mu.Unlock()
}

// Blocking marks the entry of a blocking rendezvous: it panics if the
// caller holds a lock whose rank is not marked may-block.
func Blocking() {
	g := goid()
	runtime.RaceDisable()
	table.mu.Lock()
	bad, ok := mayBlock(g)
	table.mu.Unlock()
	runtime.RaceEnable()
	if !ok {
		panic(fmt.Sprintf("lockrank: blocking rendezvous entered while holding %s, which may not be held across one", describe(bad)))
	}
}

func describe(h holding) string {
	s := fmt.Sprintf("%T (level %d)", h.r, h.r.level().n)
	if h.ordered {
		s += fmt.Sprintf(" at key %d", h.key)
	}
	return s
}

// find returns goroutine g's list, nil if it holds nothing.
//
//go:norace
func find(g int64) *goroutine {
	for e := table.buckets[uint64(g)%uint64(len(table.buckets))]; e != nil; e = e.next {
		if e.gid == g {
			return e
		}
	}
	return nil
}

// acquire adds h to goroutine g's list if its rank is above every lock
// g holds, or it is an ordered lock of the rank of an ordered lock held
// at a smaller key. Otherwise it returns the lock h conflicts with.
//
//go:norace
func acquire(g int64, h holding) (holding, bool) {
	e := find(g)
	if e != nil {
		for _, x := range e.held {
			if x.r.level().n < h.r.level().n || x.r == h.r && x.ordered && h.ordered && x.key < h.key {
				continue
			}
			return x, false
		}
	} else {
		if e = table.free; e != nil {
			table.free = e.next
		} else {
			e = new(goroutine)
		}
		b := &table.buckets[uint64(g)%uint64(len(table.buckets))]
		e.gid, e.next, *b = g, *b, e
	}
	if len(e.held) == cap(e.held) {
		grown := make([]holding, len(e.held), 2*len(e.held)+4)
		for i, x := range e.held {
			grown[i] = x
		}
		e.held = grown
	}
	e.held = e.held[:len(e.held)+1]
	e.held[len(e.held)-1] = h
	return holding{}, true
}

// release takes mutex m off goroutine g's list, and g out of the table
// when its list empties.
//
//go:norace
func release(g int64, m unsafe.Pointer) {
	e := find(g)
	if e == nil {
		return
	}
	for i := range e.held {
		if e.held[i].m == m {
			for j := i + 1; j < len(e.held); j++ {
				e.held[j-1] = e.held[j]
			}
			e.held[len(e.held)-1] = holding{}
			e.held = e.held[:len(e.held)-1]
			break
		}
	}
	if len(e.held) > 0 {
		return
	}
	for p := &table.buckets[uint64(g)%uint64(len(table.buckets))]; *p != nil; p = &(*p).next {
		if *p == e {
			*p = e.next
			break
		}
	}
	e.next, table.free = table.free, e
}

// mayBlock reports whether every lock goroutine g holds may be held
// across a rendezvous, and otherwise the first that may not.
//
//go:norace
func mayBlock(g int64) (holding, bool) {
	if e := find(g); e != nil {
		for _, x := range e.held {
			if !x.r.level().mayBlock {
				return x, false
			}
		}
	}
	return holding{}, true
}

// goid returns the calling goroutine's ID, read from the header of its
// stack trace ("goroutine 42 [running]:").
func goid() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id int64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
