package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"munin"
	"munin/internal/apps"
)

// workload is one named set of inputs. The names are fixed: issues and
// BENCHMARK.json cite them.
type workload struct {
	name string
	// procs is GOMAXPROCS while the workload runs. hit is about two threads
	// contending for one node's locks and needs both processors. Everywhere
	// else the critical path is a chain of message hops, and with a second
	// processor every hop wakes an idle virtual CPU through the hypervisor:
	// that costs more than the hop (fault takes 2.3 ms a round instead of
	// 1.2) and varies by a third from one minute to the next on a shared
	// host, so those workloads run on one processor and measure the
	// program's path and not the host's wake-up latency.
	procs int
	run   func(e env) window
	// setup times one extra set-up; nil where a window already averages
	// its set-up time over hundreds of systems.
	setup func(e env) (time.Duration, error)
	// silent workloads must not put a single message on the wire inside
	// the measured interval.
	silent bool
}

var workloads = []workload{
	threadedWorkload("hit", 2, hitWorkload(), true),
	threadedWorkload("sync", 1, syncWorkload(), false),
	threadedWorkload("flush", 1, flushWorkload(), false),
	threadedWorkload("fault", 1, faultWorkload(), false),
	{name: "apps", procs: 1, run: runApps},
}

func threadedWorkload(name string, procs int, w threaded, silent bool) workload {
	return workload{name: name, procs: procs, run: w.run, setup: w.setupOnly, silent: silent}
}

const wordBytes = 8

// homedOn allocates identifiers until one lands on node: locks and
// barriers are homed at id mod nodes, and the round-trip workloads need
// theirs on the node that runs no driver thread.
func homedOn[ID ~uint32](alloc func() ID, node, nodes int) ID {
	for {
		if id := alloc(); int(id)%nodes == node {
			return id
		}
	}
}

func optionsHome(node int) munin.Options {
	o := munin.DefaultOptions()
	o.Home = munin.NodeID(node)
	return o
}

// mix is the value word w of object o starts with or is written to in
// round i: cheap to recompute, never 0, different for every argument.
func mix(i, o, w int) uint64 {
	return (uint64(i)<<32|uint64(o)<<16|uint64(w))*0x9E3779B97F4A7C15 | 1
}

// hitWorkload is the access hit path: every read and write is served
// from a valid local copy, so api, core, protocol and stats do all the
// work and vkernel, msg and transport none. Both threads sit on node 0
// and share its locks, which is where the hit path's negative scaling
// comes from.
func hitWorkload() threaded {
	const (
		objects = 64
		size    = 4096
		words   = size / wordBytes
		burst   = 1024 // accesses per op
		bursts  = 64   // distinct seeded bursts per thread, cycled
	)
	type access struct {
		obj   uint8
		word  uint16
		write bool
	}
	return threaded{
		nodes:       2,
		placement:   func(int, int, int) munin.NodeID { return 0 },
		independent: true,
		sampleEvery: 64,
		build: func(sys *munin.System, rng *rand.Rand) instance {
			// Read-only replicas homed on the other node, and write-many
			// objects homed here so that their flush stays local.
			ro := make([]munin.RegionID, objects)
			rw := make([]munin.RegionID, objects)
			for o := range ro {
				init := make([]byte, size)
				for w := 0; w < words; w++ {
					binary.BigEndian.PutUint64(init[w*wordBytes:], mix(0, o, w))
				}
				ro[o] = sys.Alloc(fmt.Sprintf("hit.ro%d", o), size, munin.WriteOnce, optionsHome(1), init)
				rw[o] = sys.Alloc(fmt.Sprintf("hit.rw%d", o), size, munin.WriteMany, optionsHome(0), nil)
			}
			// Thread t writes only objects = t mod 2: co-located writers of
			// one object are an open bug of the runtime, not a workload.
			var sched [driverThreads][]access
			for t := range sched {
				sched[t] = make([]access, bursts*burst)
				for k := range sched[t] {
					a := access{obj: uint8(rng.Intn(objects)), word: uint16(rng.Intn(words)), write: rng.Intn(10) == 0}
					if a.write {
						a.obj = a.obj&^1 | uint8(t)
					}
					sched[t][k] = a
				}
			}
			var shadow [driverThreads][]uint64 // what each thread last wrote, by obj*words+word
			for t := range shadow {
				shadow[t] = make([]uint64, objects*words)
			}
			return instance{
				prime: func(c munin.Ctx) {
					for _, r := range ro {
						munin.ReadU64(c, r, 0)
					}
				},
				op: func(c munin.Ctx, i int) bool {
					t := c.ThreadID()
					ok := true
					for k, a := range sched[t][i%bursts*burst:][:burst] {
						o, w := int(a.obj), int(a.word)
						if a.write {
							v := mix(i, k, t)
							munin.WriteU64(c, rw[o], w*wordBytes, v)
							shadow[t][o*words+w] = v
						} else if munin.ReadU64(c, ro[o], w*wordBytes) != mix(0, o, w) {
							ok = false
						}
					}
					return ok
				},
				finish: func(c munin.Ctx, _ int) bool {
					t := c.ThreadID()
					ok := true
					for o := t; o < objects; o += 2 {
						for w := 0; w < words; w++ {
							if munin.ReadU64(c, rw[o], w*wordBytes) != shadow[t][o*words+w] {
								ok = false
							}
						}
					}
					return ok
				},
			}
		},
	}
}

// syncWorkload is small-message round trips only: one lock that guards a
// migratory record and one barrier, both homed on node 2, which runs no
// thread. The token changes hands every round, so a round is one remote
// acquire (request, recall, surrender, grant) and two barrier calls.
func syncWorkload() threaded {
	const nodes, size = 3, 64
	return threaded{
		nodes:       nodes,
		sampleEvery: 1,
		build: func(sys *munin.System, rng *rand.Rand) instance {
			lock := homedOn(sys.NewLock, 2, nodes)
			bar := homedOn(sys.NewBarrier, 2, nodes)
			opts := munin.DefaultOptions()
			opts.Lock = lock
			rec := sys.Alloc("sync.rec", size, munin.Migratory, opts, nil)
			off := rng.Intn(size/wordBytes) * wordBytes
			return instance{
				prime: func(munin.Ctx) {},
				op: func(c munin.Ctx, i int) bool {
					ok := true
					if i%driverThreads == c.ThreadID() {
						c.Acquire(lock)
						v := munin.ReadU64(c, rec, off)
						ok = v == uint64(i)
						munin.WriteU64(c, rec, off, v+1)
						c.Release(lock)
					}
					c.Barrier(bar, driverThreads)
					return ok
				},
				finish: func(c munin.Ctx, total int) bool {
					if c.ThreadID() != 0 {
						return true
					}
					c.Acquire(lock)
					v := munin.ReadU64(c, rec, off)
					c.Release(lock)
					return v == uint64(total)
				},
			}
		},
	}
}

// flushWorkload is the delayed-update path: every round each thread
// dirties its half of 64 write-many objects homed on node 2 and meets the
// other at a barrier, whose flush diffs the objects against their twins,
// ships one batch to the home, and waits for the home to merge it and
// relay it to the other copy holder.
func flushWorkload() threaded {
	const (
		nodes    = 3
		objects  = 64
		size     = 1024
		words    = size / wordBytes
		perRound = 8  // words a thread writes in each of its objects
		checkIn  = 16 // rounds in which every object is read back once
	)
	return threaded{
		nodes:       nodes,
		sampleEvery: 8,
		build: func(sys *munin.System, rng *rand.Rand) instance {
			bar := homedOn(sys.NewBarrier, 2, nodes)
			objs := make([]munin.RegionID, objects)
			for o := range objs {
				objs[o] = sys.Alloc(fmt.Sprintf("flush.o%d", o), size, munin.WriteMany, optionsHome(2), nil)
			}
			// Round i writes the next perRound words of a seeded order, so
			// consecutive rounds touch disjoint words and a thread may read
			// round i's words back while round i+1's updates arrive.
			order := rng.Perm(words)
			word := func(i, j int) int { return order[(i*perRound+j)%words] }
			return instance{
				prime: func(c munin.Ctx) {
					for _, r := range objs {
						munin.ReadU64(c, r, 0)
					}
				},
				op: func(c munin.Ctx, i int) bool {
					t := c.ThreadID()
					for o := t; o < objects; o += driverThreads {
						for j := 0; j < perRound; j++ {
							munin.WriteU64(c, objs[o], word(i, j)*wordBytes, mix(i, o, j))
						}
					}
					c.Barrier(bar, driverThreads)
					// Synchronisation implies visibility (§3.2): the other
					// thread's words of this round are here now. A sixteenth
					// of its objects is checked each round, which keeps
					// every round the same length.
					ok := true
					for o := 1 - t + i%checkIn*driverThreads; o < objects; o += checkIn * driverThreads {
						for j := 0; j < perRound; j++ {
							if munin.ReadU64(c, objs[o], word(i, j)*wordBytes) != mix(i, o, j) {
								ok = false
							}
						}
					}
					return ok
				},
				finish: func(munin.Ctx, int) bool { return true },
			}
		},
	}
}

// faultWorkload is the ownership path: the same protocol layer as flush
// used through write faults, invalidations and whole-object fetches, with
// 4 KB payloads where sync carries headers only. Writer and reader swap
// every round and are separated by barriers.
func faultWorkload() threaded {
	const (
		nodes   = 3
		objects = 16
		size    = 4096
	)
	return threaded{
		nodes:       nodes,
		sampleEvery: 1,
		build: func(sys *munin.System, rng *rand.Rand) instance {
			bar := homedOn(sys.NewBarrier, 2, nodes)
			objs := make([]munin.RegionID, objects)
			offs := make([]int, objects)
			for o := range objs {
				objs[o] = sys.Alloc(fmt.Sprintf("fault.o%d", o), size, munin.Conventional, optionsHome(2), nil)
				offs[o] = rng.Intn(size/wordBytes) * wordBytes
			}
			var bufs [driverThreads][size]byte
			return instance{
				prime: func(munin.Ctx) {},
				op: func(c munin.Ctx, i int) bool {
					t := c.ThreadID()
					writer := i % driverThreads
					if t == writer {
						for o, r := range objs {
							munin.WriteU64(c, r, offs[o], mix(i, o, 0))
						}
					}
					c.Barrier(bar, driverThreads)
					ok := true
					if t != writer {
						buf := bufs[t][:]
						for o, r := range objs {
							c.Read(r, 0, buf)
							if binary.BigEndian.Uint64(buf[offs[o]:]) != mix(i, o, 0) {
								ok = false
							}
						}
					}
					c.Barrier(bar, driverThreads)
					return ok
				},
				finish: func(munin.Ctx, int) bool { return true },
			}
		},
	}
}

// study is one of the paper's programs with its sequential answer.
type study struct {
	name string
	run  func(sys munin.DSM) float64
	want float64
}

// studies are the four study programs whose traffic does not depend on
// the schedule; TSP and QSort share a racy work queue and are left out.
func studies(seed int64) []study {
	const threads = 2
	mm := apps.MatMul{N: 48, Threads: threads, Seed: seed}
	ga := apps.Gauss{N: 48, Threads: threads, Seed: seed}
	ff := apps.FFT{N: 512, Threads: threads, Seed: seed}
	li := apps.Life{Rows: 48, Cols: 48, Generations: 8, Threads: threads, Seed: seed}
	return []study{
		{"matmul", mm.Run, mm.Sequential()},
		{"gauss", ga.Run, ga.Sequential()},
		{"fft", ff.Run, ff.Sequential()},
		{"life", func(sys munin.DSM) float64 { return float64(li.Run(sys)) }, float64(li.Sequential())},
	}
}

// runApps is time to solution for the paper's own programs: an op is one
// study program run to completion on a fresh two-node system and compared
// with its sequential answer. New and Close are charged to setup, not to
// the op — ops_per_s is runs over time spent in runs — and the programs
// take turns so that every window runs the same mix.
func runApps(e env) window {
	var win window
	if e.traced {
		win.trace = newTracer(driverThreads, 1)
	}
	progs := studies(e.seed)
	limit := e.watchdogLimit()
	var (
		turn   int
		setup  time.Duration // New + Close
		counts counters
	)
	// one runs the next program on a fresh system; tr is nil outside the
	// measured interval.
	one := func(tr *tracer) (took time.Duration, ok bool) {
		p := progs[turn%len(progs)]
		turn++
		t0 := time.Now()
		sys, err := munin.New(munin.Config{Nodes: 2, Transport: "tcp"})
		if err != nil {
			win.notes = append(win.notes, fmt.Sprintf("munin.New: %v", err))
			return 0, false
		}
		var dsm munin.DSM = sys
		if tr != nil {
			dsm = tracedSystem{sys, tr}
		}
		t1 := time.Now()
		got, took, note := runGuarded(func() float64 { return p.run(dsm) }, limit, sys.Close)
		if note != "" {
			win.notes = append(win.notes, p.name+": "+note)
		}
		if tr != nil {
			tr.threads[0].record(callOp, t1, t1.Add(took))
			for _, t := range tr.threads {
				t.op++
			}
		}
		counts = counts.plus(systemCounters(sys))
		t2 := time.Now()
		sys.Close()
		setup += t1.Sub(t0) + time.Since(t2)
		return took, note == "" && math.Abs(got-p.want) <= 1e-6*(1+math.Abs(got)+math.Abs(p.want))
	}

	// turns runs whole turns of the program list until d is spent, New and
	// Close included, so that every window runs the same mix and takes its
	// planned time. A turn is one latency sample, the mean of its four runs:
	// the programs' run times differ tenfold, and a median over single
	// runs would fall in the gap between two of them. Turns worth a slice
	// of run time make one throughput sample.
	turns := func(d time.Duration, tr *tracer) {
		var sliceOps int
		var sliceBusy time.Duration
		for start := time.Now(); time.Since(start) < d && !win.broken(); {
			var turn time.Duration
			for range progs {
				took, ok := one(tr)
				turn += took
				win.done++
				if !ok {
					win.failed++
				}
			}
			win.lat = append(win.lat, float64(turn.Nanoseconds())/1e3/float64(len(progs)))
			sliceOps += len(progs)
			if sliceBusy += turn; sliceBusy >= slice {
				win.rates = append(win.rates, float64(sliceOps)/sliceBusy.Seconds())
				sliceOps, sliceBusy = 0, 0
			}
		}
		if len(win.rates) == 0 && sliceBusy > 0 { // an interval shorter than a slice
			win.rates = append(win.rates, float64(sliceOps)/sliceBusy.Seconds())
		}
	}
	turns(e.warm, nil)
	rate := ratio(float64(win.done), e.warm.Seconds())

	// The measured interval starts from nothing but the warm-up's notes.
	win = window{trace: win.trace, notes: win.notes}
	setup, counts = 0, counters{}
	before := processCounters()
	if win.trace != nil {
		now := time.Now()
		for _, t := range win.trace.threads {
			t.begin(now)
		}
	}
	turns(e.measure, win.trace)
	// A broken window is charged the runs its interval had room for.
	win.attempted = max(win.done, 1)
	if win.broken() {
		win.attempted = max(win.attempted, int64(rate*e.measure.Seconds()))
	}
	win.counts = counts.plus(processCounters().minus(before))
	win.setup = setup / time.Duration(max(win.done, 1))
	win.settle()
	return win
}

// runGuarded runs f with panics recovered and a watchdog: when f is not
// back after limit, unstick closes the system under it. note says what
// went wrong, if anything.
func runGuarded(f func() float64, limit time.Duration, unstick func()) (v float64, took time.Duration, note string) {
	type outcome struct {
		v     float64
		panic any
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		var out outcome
		defer func() {
			out.panic = recover()
			done <- out
		}()
		out.v = f()
	}()
	select {
	case out := <-done:
		took = time.Since(start)
		if out.panic != nil {
			return 0, took, fmt.Sprintf("panicked: %v", out.panic)
		}
		return out.v, took, ""
	case <-time.After(limit):
		unstick()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
		return 0, time.Since(start), fmt.Sprintf("watchdog: not finished after %v", limit)
	}
}
