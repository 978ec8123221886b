package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"munin/internal/api"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/protocol"
)

// onNode places every thread on one node: the hit path's contended
// shape is co-located threads sharing a node's tables and counters.
func onNode(node int) func(int, int, int) msg.NodeID {
	return func(int, int, int) msg.NodeID { return msg.NodeID(node) }
}

func homedAt(node int) protocol.Options {
	o := protocol.DefaultOptions()
	o.Home = msg.NodeID(node)
	return o
}

// hitFixture is the benchmark hit workload's shape: every thread on
// node 0 of two, read-only replicas homed on the other node (primed, so
// every read is a hit on a Shared copy) and write-many objects homed
// here (so every write is a buffered local hit).
type hitFixture struct {
	sys    *System
	ro, rw []api.RegionID
}

const hitObjects, hitSize = 64, 4096

func newHitFixture(tb testing.TB) hitFixture {
	tb.Helper()
	s, err := New(Config{Nodes: 2, Placement: onNode(0)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	f := hitFixture{sys: s}
	for o := 0; o < hitObjects; o++ {
		f.ro = append(f.ro, s.Alloc(fmt.Sprintf("ro%d", o), hitSize, protocol.WriteOnce, homedAt(1), nil))
		f.rw = append(f.rw, s.Alloc(fmt.Sprintf("rw%d", o), hitSize, protocol.WriteMany, homedAt(0), nil))
	}
	s.Run(1, func(c api.Ctx) {
		for _, r := range f.ro {
			api.ReadU64(c, r, 0)
		}
	})
	return f
}

// TestHitPathZeroAllocs pins the access hit path at zero heap
// allocations per typed read and write through a real Ctx.
func TestHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := newHitFixture(t)
	f.sys.Run(1, func(c api.Ctx) {
		k := 0
		allocs := testing.AllocsPerRun(2000, func() {
			o, off := k%hitObjects, k*8%hitSize
			api.ReadU64(c, f.ro[o], off)
			api.ReadU32(c, f.ro[o], off+4)
			api.WriteU64(c, f.rw[o], off, uint64(k))
			api.ReadU32(c, f.rw[o], off)
			api.WriteU32(c, f.rw[o], off+4, uint32(k))
			k += 7
		})
		if allocs != 0 {
			t.Errorf("hit path allocates %.1f times per read+write round, want 0", allocs)
		}
	})
}

// TestAccessCountersExactOnCells: every thread adds its reads, writes
// and write.buffered to cells of its own (stats.Cell), and the counters
// must still be exact whenever the threads are quiescent — mid-Run,
// with every thread parked at a harness gate and its cells attached,
// and after the Run, when every cell has been folded in. Every thread
// writes every write-many object, so the counts are also exact with
// co-located writers of one object; the read-only replicas are read
// from the threads' translation tables.
func TestAccessCountersExactOnCells(t *testing.T) {
	const threads, per = 4, 5000
	f := newHitFixture(t)
	base := f.sys.NodeCounters(0)
	check := func(when string, rounds int64) {
		got := f.sys.NodeCounters(0)
		for name, want := range map[string]int64{
			"reads":          2 * threads * per * rounds,
			"writes":         threads * per * rounds,
			"write.buffered": threads * per * rounds,
		} {
			if d := got[name] - base[name]; d != want {
				t.Errorf("%s: %s = %d, want %d", when, name, d, want)
			}
		}
	}
	var arrive, leave sync.WaitGroup
	arrive.Add(threads)
	leave.Add(1)
	round := func(c api.Ctx) {
		for k := 0; k < per; k++ {
			o := (k + c.ThreadID()) % hitObjects
			api.ReadU64(c, f.ro[k%hitObjects], k*8%hitSize)
			api.WriteU64(c, f.rw[o], k*8%hitSize, uint64(k))
			api.ReadU64(c, f.rw[o], k*8%hitSize)
		}
	}
	f.sys.Run(threads, func(c api.Ctx) {
		round(c)
		arrive.Done()
		if c.ThreadID() == 0 {
			arrive.Wait()
			check("mid-Run", 1)
			leave.Done()
		}
		leave.Wait()
		round(c)
	})
	check("after Run", 2)
}

// TestAccessCountersExactUnattached: a queue no runtime thread attached
// — the shape of a probe that drives protocol.Node directly — counts in
// the counters' own words, exactly, from several goroutines at once.
func TestAccessCountersExactUnattached(t *testing.T) {
	const goroutines, per = 4, 2000
	f := newHitFixture(t)
	node := f.sys.ProtocolNode(0)
	base := f.sys.NodeCounters(0)
	ro, rw := f.sys.objectOf(f.ro[0]), f.sys.objectOf(f.rw[0])
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := duq.New()
			var word [8]byte
			for k := 0; k < per; k++ {
				node.Read(q, ro, k*8%hitSize, word[:])
				node.Write(q, rw, (g*per+k)*8%hitSize, word[:])
			}
			node.FlushQueue(q)
		}()
	}
	wg.Wait()
	got := f.sys.NodeCounters(0)
	for name, want := range map[string]int64{
		"reads":          goroutines * per,
		"writes":         goroutines * per,
		"write.buffered": goroutines * per,
	} {
		if d := got[name] - base[name]; d != want {
			t.Errorf("%s = %d, want %d", name, d, want)
		}
	}
}

// TestHitPathRacesRelayAndInstall drives the lock-free lookup tables
// and the single-lock hit path against what mutates the same state
// concurrently: two co-located readers and a buffered writer on node 0
// hit a write-many object while node 1's flushes are merged and relayed
// into the same copy; between Runs new objects are installed, enough of
// them to republish the object table's root. Run under -race.
func TestHitPathRacesRelayAndInstall(t *testing.T) {
	const rounds, iters, lanes = 3, 300, 8
	s, err := New(Config{Nodes: 2, Placement: func(id, _, _ int) msg.NodeID {
		if id == 3 {
			return 1
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One object homed on each side: node 1's flush reaches node 0's
	// copy as a home merge (homed at 0) and as a relay (homed at 1).
	objs := []api.RegionID{
		s.Alloc("wm.home0", lanes*8, protocol.WriteMany, homedAt(0), nil),
		s.Alloc("wm.home1", lanes*8, protocol.WriteMany, homedAt(1), nil),
	}
	var extra []api.RegionID
	for round := 1; round <= rounds; round++ {
		// Installed between Runs and read in the next one; the bulk
		// pushes the IDs past one table chunk per round.
		extra = append(extra, s.Alloc(fmt.Sprintf("late%d", round), 8, protocol.WriteOnce, homedAt(1), binary.BigEndian.AppendUint64(nil, uint64(round))))
		for i := 0; i < 1100; i++ {
			s.Alloc(fmt.Sprintf("bulk%d.%d", round, i), 8, protocol.Private, protocol.DefaultOptions(), nil)
		}
		s.Run(4, func(c api.Ctx) {
			switch c.ThreadID() {
			case 0, 1: // co-located readers: remote lane only ever grows
				var last [2]uint64
				for i := 0; i < iters; i++ {
					for j, r := range objs {
						v := api.ReadU64(c, r, 1*8)
						if v < last[j] {
							t.Errorf("reader %d: object %d lane 1 went back from %d to %d", c.ThreadID(), j, last[j], v)
						}
						last[j] = v
						api.ReadU64(c, r, 0)
					}
					for k, r := range extra {
						if v := api.ReadU64(c, r, 0); v != uint64(k+1) {
							t.Errorf("late object %d = %d, want %d", k, v, k+1)
						}
					}
				}
			case 2: // co-located buffered writer
				for i := 1; i <= iters; i++ {
					for _, r := range objs {
						api.WriteU64(c, r, 0, uint64(round*iters+i))
					}
					if i%16 == 0 {
						c.Flush()
					}
				}
			case 3: // remote flusher
				for i := 1; i <= iters; i++ {
					for _, r := range objs {
						api.WriteU64(c, r, 1*8, uint64(round*iters+i))
					}
					c.Flush()
				}
			}
		})
		// Every thread flushed at exit, so both lanes are final on both nodes.
		s.Run(2, func(c api.Ctx) {
			for j, r := range objs {
				for lane := 0; lane < 2; lane++ {
					if v := api.ReadU64(c, r, lane*8); v != uint64(round*iters+iters) {
						t.Errorf("round %d: thread %d sees object %d lane %d = %d, want %d",
							round, c.ThreadID(), j, lane, v, round*iters+iters)
					}
				}
			}
		})
	}
}

// TestAccessPathPanics: every check the access path made before it was
// rebuilt still fires, with its message.
func TestAccessPathPanics(t *testing.T) {
	s := newSys(t, 2)
	lock := s.NewLock()
	migOpts := protocol.DefaultOptions()
	migOpts.Lock = lock
	plain := s.Alloc("plain", 16, protocol.Conventional, homedAt(0), nil)
	mig := s.Alloc("mig", 8, protocol.Migratory, migOpts, nil)
	once := s.Alloc("once", 8, protocol.WriteOnce, homedAt(0), nil)
	// Replicate the write-once object to node 1; it is frozen from here on.
	s.Run(2, func(c api.Ctx) {
		if c.Node() == 1 {
			api.ReadU64(c, once, 0)
		}
	})
	node := s.ProtocolNode(0)
	buf := make([]byte, 8)

	cases := []struct {
		name   string
		access func(c api.Ctx)
		want   string
	}{
		{"unknown region read", func(c api.Ctx) { c.Read(api.RegionID(99), 0, buf) }, "munin: unknown region 99"},
		{"negative region write", func(c api.Ctx) { c.Write(api.RegionID(-1), 0, buf) }, "munin: unknown region -1"},
		{"unallocated object read", func(api.Ctx) { node.Read(duq.New(), memory.ObjectID(4242), 0, buf) },
			"munin: node 0: access to unallocated object 4242"},
		{"unallocated object write", func(api.Ctx) { node.Write(duq.New(), memory.ObjectID(1<<30), 0, buf) },
			fmt.Sprintf("munin: node 0: access to unallocated object %d", 1<<30)},
		{"read past the end", func(c api.Ctx) { c.Read(plain, 12, buf) }, `munin: access [12,20) out of range for "plain" (size 16)`},
		{"write at negative offset", func(c api.Ctx) { c.Write(plain, -8, buf) }, `munin: access [-8,0) out of range for "plain" (size 16)`},
		{"migratory read without lock", func(c api.Ctx) { c.Read(mig, 0, buf) },
			fmt.Sprintf(`munin: migratory object "mig" read without holding lock %d`, lock)},
		{"migratory write without lock", func(c api.Ctx) { c.Write(mig, 0, buf) },
			fmt.Sprintf(`munin: migratory object "mig" written without holding lock %d`, lock)},
		{"write-once after replication", func(c api.Ctx) { c.Write(once, 0, buf) },
			`munin: write-once object "once" written after replication`},
		{"word read past the end of a cached view", func(c api.Ctx) { readCached(c, once, 0); api.ReadU64(c, once, 4) },
			`munin: access [4,12) out of range for "once" (size 8)`},
		{"half-word read before a cached view", func(c api.Ctx) { readCached(c, once, 0); api.ReadU32(c, once, -4) },
			`munin: access [-4,0) out of range for "once" (size 8)`},
		{"unknown region word read", func(c api.Ctx) { api.ReadU64(c, api.RegionID(99), 0) }, "munin: unknown region 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tc.want) {
					t.Fatalf("panic = %q, want it to contain %q", got, tc.want)
				}
			}()
			s.Run(1, tc.access) // thread 0 runs on node 0
			t.Fatal("access did not panic")
		})
	}
	// The checks reject only what they should: the same accesses, legal.
	s.Run(1, func(c api.Ctx) {
		c.Read(plain, 8, buf)
		c.Acquire(lock)
		api.WriteU64(c, mig, 0, 7)
		if v := api.ReadU64(c, mig, 0); v != 7 {
			t.Errorf("migratory under lock = %d, want 7", v)
		}
		c.Release(lock)
		c.Read(once, 0, buf)
		if v := readCached(c, once, 0); v != binary.BigEndian.Uint64(buf) {
			t.Errorf("word read of the cached view = %#x, want %#x", v, buf)
		}
		if v := api.ReadU32(c, once, 4); v != binary.BigEndian.Uint32(buf[4:]) {
			t.Errorf("last half-word of the cached view = %#x, want %#x", v, buf[4:])
		}
	})
}

// benchHit times hit-path accesses through real Ctxs, one thread per
// processor (-cpu 1,2), all on node 0: ns/op is wall time over total
// accesses. The access pattern is the benchmark probe's
// (core.read_hit_ns): every thread sweeps all the read-only replicas —
// write-once, so frozen snapshots read without a lock and two threads
// share no written line — and each thread writes only its own
// write-many objects.
func benchHit(b *testing.B, access func(c api.Ctx, f hitFixture, k int)) {
	f := newHitFixture(b)
	threads := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	f.sys.Run(threads, func(c api.Ctx) {
		for i, k := c.ThreadID(), c.ThreadID(); i < b.N; i, k = i+threads, k+7 {
			access(c, f, k)
		}
	})
}

func BenchmarkReadHit(b *testing.B) {
	benchHit(b, func(c api.Ctx, f hitFixture, k int) {
		api.ReadU64(c, f.ro[k%hitObjects], k*8%hitSize)
	})
}

func BenchmarkWriteHit(b *testing.B) {
	benchHit(b, func(c api.Ctx, f hitFixture, k int) {
		api.WriteU64(c, f.rw[(k*c.NThreads()+c.ThreadID())%hitObjects], k*8%hitSize, uint64(k))
	})
}

func BenchmarkReadHitU32(b *testing.B) {
	benchHit(b, func(c api.Ctx, f hitFixture, k int) {
		api.ReadU32(c, f.ro[k%hitObjects], k*4%hitSize)
	})
}

func BenchmarkWriteHitU32(b *testing.B) {
	benchHit(b, func(c api.Ctx, f hitFixture, k int) {
		api.WriteU32(c, f.rw[(k*c.NThreads()+c.ThreadID())%hitObjects], k*4%hitSize, uint32(k))
	})
}
