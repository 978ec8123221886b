package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"munin/internal/api"
	"munin/internal/protocol"
)

// A thread's translation table caches a write-once object's frozen
// snapshot and reads words straight out of it. These tests are the
// oracle for the generation word that makes that safe: whatever retracts
// a snapshot, or blocks access, must shoot down every thread's cached
// translation on the node, or a thread goes on reading bytes that are
// gone.

// writeSole stores v at the home of a write-once object once its replica
// has been evicted. kindEvict is a one-way Send, so until it reaches the
// home the write is refused as a write after replication; retry until
// it is accepted.
func writeSole(t *testing.T, c api.Ctx, r api.RegionID, off int, v uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		refused := func() (refused bool) {
			defer func() {
				if p := recover(); p != nil {
					if !strings.Contains(p.(string), "written after replication") {
						panic(p)
					}
					refused = true
				}
			}()
			api.WriteU64(c, r, off, v)
			return false
		}()
		if !refused {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the home still counts the evicted replica")
		}
	}
}

// readCached reads r's word at off twice, so the second read is served
// from the thread's table whatever the first had to fetch.
func readCached(c api.Ctx, r api.RegionID, off int) uint64 {
	api.ReadU64(c, r, off)
	return api.ReadU64(c, r, off)
}

// TestShootdownOnEvict: a thread on the replica's node caches the view,
// evicts the replica, and the home re-initialises the object. The
// thread's next read must refetch and see the new bytes, not the view it
// cached before the Evict.
func TestShootdownOnEvict(t *testing.T) {
	const first, second = 0x1111, 0x2222
	s := newSys(t, 2)
	init := make([]byte, 16)
	init[15] = first & 0xff
	init[14] = first >> 8
	r := s.Alloc("once", 16, protocol.WriteOnce, homedAt(1), init)
	evicted, rewritten := make(chan struct{}), make(chan struct{})
	s.Run(2, func(c api.Ctx) { // thread 0 on node 0, thread 1 on node 1 (the home)
		switch c.ThreadID() {
		case 0:
			if v := readCached(c, r, 8); v != first {
				t.Errorf("replica read %#x, want %#x", v, first)
			}
			c.(*Ctx).Evict(r)
			close(evicted)
			<-rewritten
			if v := api.ReadU64(c, r, 8); v != second {
				t.Errorf("read after Evict and re-initialisation = %#x, want %#x", v, second)
			}
		case 1:
			<-evicted
			writeSole(t, c, r, 8, second)
			close(rewritten)
		}
	})
}

// TestShootdownOnThaw: a thread at the home caches the home's frozen
// view; every replica is evicted and the home writes again, which thaws
// the object into a private copy. The thread must read what it wrote,
// not the view it cached before the thaw.
func TestShootdownOnThaw(t *testing.T) {
	const first, second = 0x3333, 0x4444
	s := newSys(t, 2)
	r := s.Alloc("once", 16, protocol.WriteOnce, homedAt(1), nil)
	replicated, cached, evicted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.Run(2, func(c api.Ctx) {
		switch c.ThreadID() {
		case 0: // the replica's node
			<-replicated
			api.ReadU64(c, r, 8) // serving this replica freezes the home copy
			close(cached)
			c.(*Ctx).Evict(r)
			close(evicted)
		case 1: // the home
			api.WriteU64(c, r, 8, first)
			close(replicated)
			<-cached
			if v := readCached(c, r, 8); v != first {
				t.Errorf("home read %#x, want %#x", v, first)
			}
			<-evicted
			writeSole(t, c, r, 8, second)
			if v := api.ReadU64(c, r, 8); v != second {
				t.Errorf("home read after its thaw = %#x, want %#x", v, second)
			}
		}
	})
}

// TestShootdownOnBeginRecovery: a thread with a cached view must block
// once its node begins recovering, like any other access, and read again
// once recovery finishes.
func TestShootdownOnBeginRecovery(t *testing.T) {
	const want = 0x5555
	s := newSys(t, 2)
	init := make([]byte, 16)
	init[15] = want & 0xff
	init[14] = want >> 8
	r := s.Alloc("once", 16, protocol.WriteOnce, homedAt(1), init)
	node := s.ProtocolNode(0)
	cached, recovering, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.Run(2, func(c api.Ctx) {
		switch c.ThreadID() {
		case 0:
			readCached(c, r, 8)
			close(cached)
			<-recovering
			if v := api.ReadU64(c, r, 8); v != want {
				t.Errorf("read after recovery = %#x, want %#x", v, want)
			}
			close(done)
		case 1:
			<-cached
			node.BeginRecovery()
			close(recovering)
			select {
			case <-done:
				t.Error("a cached read went past BeginRecovery without blocking")
			case <-time.After(50 * time.Millisecond):
			}
			node.FinishRecovery()
			<-done
		}
	})
}

// TestShootdownRacesEvict: co-located readers hammer write-once replicas
// from their translation tables while another thread on the node keeps
// evicting and refetching them. Every read, whichever view it caught,
// returns the initial bytes. Run under -race.
func TestShootdownRacesEvict(t *testing.T) {
	const readers, objects, size, evictions = 3, 4, 256, 300
	s, err := New(Config{Nodes: 2, Placement: onNode(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	init := make([]byte, size)
	for i := range init {
		init[i] = byte(i*7) ^ 0x5a
	}
	want := func(off int) uint64 {
		var v uint64
		for _, b := range init[off : off+8] {
			v = v<<8 | uint64(b)
		}
		return v
	}
	var rs []api.RegionID
	for o := 0; o < objects; o++ {
		rs = append(rs, s.Alloc("once", size, protocol.WriteOnce, homedAt(1), init))
	}
	stopped := make(chan struct{})
	s.Run(readers+1, func(c api.Ctx) {
		if c.ThreadID() == readers {
			for e := 0; e < evictions; e++ {
				r := rs[e%objects]
				c.(*Ctx).Evict(r)
				if v := api.ReadU64(c, r, e*8%size); v != want(e*8%size) {
					t.Errorf("refetch %d read %#x, want %#x", e, v, want(e*8%size))
				}
			}
			close(stopped)
			return
		}
		for k := c.ThreadID(); ; k += 5 {
			select {
			case <-stopped:
				return
			default:
			}
			off := k * 8 % size
			if v := api.ReadU64(c, rs[k%objects], off); v != want(off) {
				t.Errorf("reader %d: word at %d = %#x, want %#x", c.ThreadID(), off, v, want(off))
				return
			}
			if u := api.ReadU32(c, rs[k%objects], off+4); u != uint32(want(off)) {
				t.Errorf("reader %d: half-word at %d = %#x, want %#x", c.ThreadID(), off+4, u, uint32(want(off)))
				return
			}
			if k%16 == 0 {
				runtime.Gosched() // or the evictor's round trips wait out whole time slices
			}
		}
	})
}
