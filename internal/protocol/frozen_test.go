package protocol

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/duq"
	"munin/internal/memory"
)

// Write-once objects are published frozen (Obj.snap): these tests pin
// what that buys — a read hit that takes no lock — and what it must
// never cost: a torn, stale or resurrected byte.

// sole waits until the home's directory lists only the home itself:
// kindEvict is a one-way Send, so an eviction is not in effect at the
// home the moment Evict returns.
func (r *rig) sole(t *testing.T, home int, id memory.ObjectID) {
	t.Helper()
	d := r.nodes[home].dirEntryOf(id)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		d.mu.Lock()
		n := len(d.copyset)
		d.mu.Unlock()
		if n == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("object %d: copyset still has %d members", id, n)
		}
	}
}

// pattern is object contents that differ at every offset a reader could
// tear across.
func pattern(size int, salt byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7) ^ byte(i>>8) ^ salt
	}
	return b
}

// TestFrozenReadTakesNoLock: with the object's mutex held by someone
// else for good, a read of a frozen copy — the replica, and the home
// once it has served one — still returns.
func TestFrozenReadTakesNoLock(t *testing.T) {
	r := newRig(t, 2)
	init := pattern(64, 0)
	r.alloc(2, "tbl", len(init), WriteOnce, DefaultOptions(), init) // home = node 0
	q := duq.New()
	buf := make([]byte, 8)
	r.nodes[1].Read(q, 2, 0, buf) // replicate: freezes both copies
	for _, n := range r.nodes {
		o := n.mustObj(2)
		o.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.Read(duq.New(), 2, 8, buf)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d: read of a frozen write-once copy waits for Obj.mu", n.ID())
		}
		o.mu.Unlock()
		if !bytes.Equal(buf, init[8:16]) {
			t.Fatalf("node %d: read %x, want %x", n.ID(), buf, init[8:16])
		}
	}
}

// TestFrozenReplicaReadsRaceEvict: readers hammer a write-once replica
// while another thread keeps paging it out and refetching. Every read,
// whichever snapshot it caught, returns the initial bytes: a refetch
// installs a fresh snapshot and never writes under a reader still
// inside the old one. Run under -race.
func TestFrozenReplicaReadsRaceEvict(t *testing.T) {
	const readers, size, evictions = 4, 4096, 1000
	r := newRig(t, 2)
	init := pattern(size, 0x5a)
	r.alloc(2, "big", size, WriteOnce, DefaultOptions(), init) // home = node 0
	node := r.nodes[1]
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := duq.New()
			buf := make([]byte, 256)
			for k := i; !stop.Load(); k += 13 {
				off := k * 64 % (size - len(buf))
				node.Read(q, 2, off, buf)
				if !bytes.Equal(buf, init[off:off+len(buf)]) {
					t.Errorf("reader %d: bytes at %d differ from the initial contents", i, off)
					return
				}
				if k%16 == 0 {
					runtime.Gosched() // or the evictor's round trips wait out whole time slices
				}
			}
		}(i)
	}
	q := duq.New()
	whole := make([]byte, size)
	for e := 0; e < evictions; e++ {
		node.Evict(2)
		node.Read(q, 2, 0, whole)
		if !bytes.Equal(whole, init) {
			t.Fatalf("refetch %d differs from the initial contents", e)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := node.C.Get("evict"); got < evictions/2 {
		// An Evict that finds a reader's refetch not yet installed is a
		// no-op; most must still have dropped a live replica.
		t.Errorf("only %d of %d evictions found a replica", got, evictions)
	}
}

// TestFrozenHomeThawsAfterEviction is the legal second initialisation:
// write, replicate, evict, write again. The second write must not touch
// the published bytes — home readers racing it see the old value or the
// new one, never a mix and never old after new — and both the home and a
// refetching replica then read the second value. Run under -race.
func TestFrozenHomeThawsAfterEviction(t *testing.T) {
	const size = 512
	first, second := pattern(size, 1), pattern(size, 2)
	r := newRig(t, 2)
	r.alloc(2, "tbl", size, WriteOnce, DefaultOptions(), nil) // home = node 0
	home, remote := r.nodes[0], r.nodes[1]
	q := duq.New()
	got := make([]byte, size)

	home.Write(q, 2, 0, first)
	remote.Read(q, 2, 0, got)
	if !bytes.Equal(got, first) {
		t.Fatal("replica differs from the first initialisation")
	}
	o := home.mustObj(2)
	if o.snap.view() == "" || o.data != nil {
		t.Fatal("home copy not frozen after serving a replica")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := duq.New()
			buf := make([]byte, size)
			sawSecond := false
			for !stop.Load() {
				home.Read(q, 2, 0, buf)
				switch {
				case bytes.Equal(buf, second):
					sawSecond = true
				case !bytes.Equal(buf, first):
					t.Error("home reader saw a mix of the two initialisations")
					return
				case sawSecond:
					t.Error("home reader saw the first value after the second")
					return
				}
			}
		}()
	}

	remote.Evict(2)
	r.sole(t, 0, 2)
	home.Write(q, 2, 0, second)               // thaws: copy, then write
	home.Write(q, 2, size/2, second[size/2:]) // thawed: in place (same bytes, so readers see no mix)
	home.Read(q, 2, 0, got)
	if !bytes.Equal(got, second) {
		t.Error("home read after the second initialisation is not the second value")
	}
	remote.Read(q, 2, 0, got)
	if !bytes.Equal(got, second) {
		t.Error("refetched replica is not the second value")
	}
	stop.Store(true)
	wg.Wait()
	if o.snap.view() != string(second) || o.data != nil {
		t.Error("home copy not frozen again after serving the second replica")
	}
}

// TestFrozenEvictFreesTheReplica: after Evict the node holds no
// reference to the replica's bytes — not in the object, and so not in
// the heap once collected.
func TestFrozenEvictFreesTheReplica(t *testing.T) {
	const size = 4 << 20
	r := newRig(t, 2)
	r.alloc(2, "big", size, WriteOnce, DefaultOptions(), nil) // home = node 0
	q := duq.New()
	buf := make([]byte, 8)
	r.nodes[1].Read(q, 2, size-8, buf)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	r.nodes[1].Evict(2)
	o := r.nodes[1].mustObj(2)
	if o.snap.view() != "" || o.data != nil {
		t.Fatal("evicted replica still reachable from its object")
	}
	if after := heap(); before < after+size/2 {
		t.Errorf("heap went from %d to %d bytes over an eviction of a %d-byte replica", before, after, size)
	}
	r.nodes[1].Read(q, 2, size-8, buf) // and it comes back
}

// TestWriteOnceWriteCannotStraddleAReplica: the home's sole-copy check
// and its store are one critical section of the directory entry. A read
// fault that arrives in between waits, and is served the written bytes;
// it used to be served in the gap, and that replica never saw the write.
func TestWriteOnceWriteCannotStraddleAReplica(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(2, "tbl", 8, WriteOnce, DefaultOptions(), nil) // home = node 0
	home, remote := r.nodes[0], r.nodes[1]
	replica := make(chan uint64, 1)
	testHookWriteOnceChecked = func() {
		testHookWriteOnceChecked = nil
		served := home.C.Get("home.read")
		go func() { replica <- readU64(remote, duq.New(), 2, 0) }()
		// Wait for the fault to reach the home's handler, then give it
		// every chance to be served before the store happens.
		for home.C.Get("home.read") == served {
			time.Sleep(50 * time.Microsecond)
		}
		select {
		case v := <-replica:
			replica <- v
		case <-time.After(20 * time.Millisecond):
		}
	}
	defer func() { testHookWriteOnceChecked = nil }()
	home.Write(duq.New(), 2, 0, u64bytes(42))
	if v := <-replica; v != 42 {
		t.Fatalf("replica served between the sole-copy check and the write reads %d; the home wrote 42", v)
	}
}
