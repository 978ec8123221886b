//go:build race

package lockrank_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// The rank types stand in for the module's real locks: the fences
// (ObjPush, DirRelay), the home's directory entry (DirEntry) and a data
// lock (Obj), with the levels and may-block marks those locks have.
type (
	obj      struct{ mu lockrank.Mutex[lockrank.Obj] }
	dirEntry struct {
		mu      lockrank.Mutex[lockrank.DirEntry]
		relayMu lockrank.Mutex[lockrank.DirRelay]
		id      uint64
	}
)

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if s := fmt.Sprint(r); !strings.Contains(s, want) {
			t.Fatalf("panic %q does not mention %q", s, want)
		}
	}()
	f()
}

// kernels returns node 0's kernel, wired to a node 1 that answers pings.
func kernels(t *testing.T) *vkernel.Kernel {
	t.Helper()
	net := transport.NewChanNetwork(2, transport.CostModel{})
	k0, k1 := vkernel.New(net, 0), vkernel.New(net, 1)
	k1.Handle(msg.KindPing, msg.KindPing, func(k *vkernel.Kernel, req *msg.Msg) {
		if err := k.Reply(req, nil); err != nil {
			t.Error(err)
		}
	})
	t.Cleanup(func() {
		net.Close()
		k0.Wait()
		k1.Wait()
	})
	return k0
}

func ping(t *testing.T, k *vkernel.Kernel) {
	t.Helper()
	if _, err := k.Call(1, msg.KindPing, nil); err != nil {
		t.Fatal(err)
	}
}

// cycleAB and cycleBA take two locks in opposite orders. The ranks
// order the pair, so whichever order runs against them panics on its
// first run, before a second goroutine closes the cycle.
func TestCycleIsRejected(t *testing.T) {
	var d dirEntry
	var o obj
	d.mu.Lock() // cycleAB: directory entry, then object — the ranked order
	o.mu.Lock()
	o.mu.Unlock()
	d.mu.Unlock()

	o.mu.Lock() // cycleBA: object, then directory entry
	defer o.mu.Unlock()
	mustPanic(t, "lockrank.DirEntry (level 14) taken while holding lockrank.Obj (level 18)", d.mu.Lock)
}

// Two ranks on one level order nothing between them: both directions
// of the pair are rejected.
func TestSameLevelIsRejectedBothWays(t *testing.T) {
	var a lockrank.Mutex[lockrank.CoreSystem]
	var b lockrank.Mutex[lockrank.CoreGate]
	a.Lock()
	mustPanic(t, "lockrank.CoreGate", b.Lock)
	a.Unlock()
	b.Lock()
	mustPanic(t, "lockrank.CoreSystem", a.Lock)
	b.Unlock()
}

// sameKeyNest: two instances of one field nested.
func TestSameKeyNestIsRejected(t *testing.T) {
	var o1, o2 obj
	o1.mu.Lock()
	defer o1.mu.Unlock()
	mustPanic(t, "lockrank.Obj (level 18) taken while holding lockrank.Obj (level 18)", o2.mu.Lock)
}

// blockUnderMutex: a call while a data mutex is held.
func TestCallUnderMutexIsRejected(t *testing.T) {
	k := kernels(t)
	var o obj
	o.mu.Lock()
	mustPanic(t, "blocking rendezvous entered while holding lockrank.Obj", func() { ping(t, k) })
	o.mu.Unlock()
	ping(t, k) // the held list is clean again
}

// blockUnderMutex: waiting on a started call while a data mutex is held.
func TestPendingWaitUnderMutexIsRejected(t *testing.T) {
	k := kernels(t)
	p, err := k.CallStart(1, msg.KindPing, nil)
	if err != nil {
		t.Fatal(err)
	}
	var o obj
	o.mu.Lock()
	mustPanic(t, "blocking rendezvous entered while holding lockrank.Obj", func() { _, _ = p.Wait() })
	o.mu.Unlock()
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// badLoopLock: fences taken in a loop out of ID order, and in a loop
// with the plain Lock.
func TestUnsortedFenceLoopIsRejected(t *testing.T) {
	ds := []*dirEntry{{id: 3}, {id: 1}}
	ds[0].relayMu.LockOrdered(ds[0].id)
	mustPanic(t, "lockrank.DirRelay (level 10) at key 1 taken while holding lockrank.DirRelay (level 10) at key 3", func() {
		ds[1].relayMu.LockOrdered(ds[1].id)
	})
	mustPanic(t, "lockrank.DirRelay (level 10) taken while holding lockrank.DirRelay (level 10) at key 3", ds[1].relayMu.Lock)
	ds[0].relayMu.Unlock()
}

// badFencePair: two fences taken directly, in the order the code is
// written rather than ID order.
func TestFencePairIsRejected(t *testing.T) {
	a, b := &dirEntry{id: 1}, &dirEntry{id: 2}
	a.relayMu.Lock()
	defer a.relayMu.Unlock()
	mustPanic(t, "lockrank.DirRelay (level 10) taken while holding lockrank.DirRelay (level 10)", b.relayMu.Lock)
}

// The clean cases: a fence and the directory entry are held across
// calls, a sorted fence loop, a lock taken in one branch only, and a
// lock that backs a sync.Cond.
func TestCleanCasesPass(t *testing.T) {
	k := kernels(t)
	var d dirEntry
	d.relayMu.Lock() // fence held across a call
	ping(t, k)
	d.relayMu.Unlock()

	d.mu.Lock() // dirEntry.mu held across a call
	ping(t, k)
	d.mu.Unlock()

	ds := []*dirEntry{{id: 1}, {id: 2}, {id: 5}} // the sorted loop
	for _, d := range ds {
		d.relayMu.LockOrdered(d.id)
	}
	ping(t, k)
	for _, d := range ds {
		d.relayMu.Unlock()
	}

	var o obj
	for _, branch := range []bool{true, false} { // a lock in one branch
		if branch {
			o.mu.Lock()
			o.mu.Unlock()
		}
		ping(t, k)
	}

	var done bool // a ranked lock behind a sync.Cond
	c := sync.NewCond(&o.mu)
	go func() {
		o.mu.Lock()
		done = true
		o.mu.Unlock()
		c.Broadcast()
	}()
	o.mu.Lock()
	for !done {
		c.Wait()
	}
	o.mu.Unlock()
}

// A lock unlocked by another goroutine leaves the locker's list.
func TestUnlockOnAnotherGoroutine(t *testing.T) {
	var o obj
	o.mu.Lock()
	done := make(chan struct{})
	go func() {
		o.mu.Unlock()
		close(done)
	}()
	<-done
	var o2 obj
	o2.mu.Lock()
	o2.mu.Unlock()
}

// Goroutines locking at once keep separate lists: each nests its own
// directory entry and object, all of them contend for one shared
// object, and none trips over another's locks.
func TestGoroutinesKeepTheirOwnLists(t *testing.T) {
	var shared obj
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d dirEntry
			var o obj
			for i := 0; i < 200; i++ {
				d.mu.Lock()
				o.mu.Lock()
				o.mu.Unlock()
				shared.mu.Lock()
				shared.mu.Unlock()
				d.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
