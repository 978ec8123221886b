package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"munin"
)

// driverThreads is the closed loop's client count: one per core of the
// reference box, never more, so the driver does not queue on itself.
const driverThreads = 2

// period is how many consecutive ops of a thread make one latency sample,
// which is their mean. Turns alternate between the threads in sync and
// fault, the thread that times a round leaves its barrier now first, now
// last, and on hit the node's lock changes hands in runs, so single ops
// read short and long in turn and their median falls between two modes.
// A period holds one op of each.
const period = driverThreads

// env is what one window runs with.
type env struct {
	seed    int64
	warm    time.Duration // warm-up and calibration
	measure time.Duration // target length of the measured interval
	traced  bool          // record driver spans around Ctx calls
}

// window is what one measured window produced.
type window struct {
	setup     time.Duration // New + Alloc + priming + Close
	attempted int64         // ops run, or the ops the interval had room for when it broke
	done      int64         // ops that ran to completion
	failed    int64         // mismatches + ops lost to a panic or the watchdog
	lat       []float64     // latency samples, µs an op: one per period of ops
	rates     []float64     // ops per second, one per slice of the measured interval
	counts    counters      // counter deltas over the measured interval
	trace     *tracer       // nil when untraced
	notes     []string      // recovered panics, watchdog firings
}

// noteLog collects what went wrong in a window from the driver threads
// and the watchdog alike.
type noteLog struct {
	mu    sync.Mutex
	notes []string
}

func (l *noteLog) add(format string, args ...any) {
	l.mu.Lock()
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *noteLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.notes...)
}

// settle charges the ops a broken window never completed to failed.
func (w *window) settle() {
	if w.broken() {
		w.failed += w.attempted - w.done
	}
	w.failed = min(w.failed, w.attempted)
}

// broken reports whether the window lost ops to a panic or a hang; the
// process exits non-zero after reporting when any window did.
func (w *window) broken() bool { return len(w.notes) > 0 }

// threaded is a workload whose driver threads loop over ops inside one
// Run of one system.
type threaded struct {
	nodes     int
	placement func(id, nthreads, nodes int) munin.NodeID // nil = round robin
	// independent threads do not meet inside an op: every thread's ops
	// and latencies count. Otherwise an op is a round all threads take
	// part in, counted once and timed on thread 0's clock.
	independent bool
	// sampleEvery is the traced pass's read/write sampling stride.
	sampleEvery int
	build       func(sys *munin.System, rng *rand.Rand) instance
}

// instance is one window's allocated objects, closed over by its ops.
type instance struct {
	// prime faults replicas in; it runs once per thread before warm-up
	// and is charged to setup.
	prime func(c munin.Ctx)
	// op runs op number i (counted from the start of warm-up) and
	// reports whether everything it read back was right.
	op func(c munin.Ctx, i int) bool
	// finish checks the final shared state after total ops per thread.
	finish func(c munin.Ctx, total int) bool
}

// gate is the rendezvous between the driver threads of one window. It is
// harness state, not DSM state: no message is sent to pass it, so the
// window's message counts depend on the op count alone.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
	aborted bool
}

func newGate(parties int) *gate {
	g := &gate{parties: parties}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until every party has arrived; false means the window was
// aborted and the caller must unwind.
func (g *gate) wait() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		return false
	}
	g.waiting++
	if g.waiting == g.parties {
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
		return true
	}
	for gen := g.gen; gen == g.gen && !g.aborted; {
		g.cond.Wait()
	}
	return !g.aborted
}

func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// slice is how long the driver threads run between two looks at the
// clock in the measured interval. They meet at the gate after every slice
// and stop together once the interval is spent, so a window takes its
// planned time whatever the machine does to the rate, every thread runs
// the same number of rounds, and the gate costs a few microseconds in
// fifty milliseconds. A slice is also the unit of throughput: a window's
// ops_per_s is its median slice, so a stall — the collector, a time slice
// the hypervisor took — lands in one slice and not in the mean.
const slice = 50 * time.Millisecond

// calibration turns warm-up progress into the next chunk of warm-up ops
// and, once the warm-up time is spent, into the op count of one slice.
type calibration struct {
	warm    time.Duration
	elapsed time.Duration
	chunk   int
	rate    float64 // ops per second over the last chunk
}

// next accounts for a finished chunk that took d and returns the op
// count of a measured slice, in whole periods, when warm-up is over, or 0
// after sizing the next warm-up chunk.
func (cal *calibration) next(d time.Duration) int {
	cal.elapsed += d
	cal.rate = float64(cal.chunk) / d.Seconds()
	if cal.elapsed >= cal.warm {
		return max(1, int(cal.rate*slice.Seconds())/period) * period
	}
	fill := int(cal.rate * (cal.warm - cal.elapsed).Seconds())
	cal.chunk = max(1, min(2*cal.chunk, fill))
	return 0
}

// threadOut is what one driver thread reports back.
type threadOut struct {
	lat    []float64
	done   int64
	failed int64
}

// open starts a fresh system with the workload's objects allocated.
func (w threaded) open(seed int64) (*munin.System, instance, error) {
	sys, err := munin.New(munin.Config{Nodes: w.nodes, Transport: "tcp", Placement: w.placement})
	if err != nil {
		return nil, instance{}, err
	}
	return sys, w.build(sys, rand.New(rand.NewSource(seed))), nil
}

// watchdogLimit is how long a window may take before it counts as hung:
// ten times its planned length, and time to set up.
func (e env) watchdogLimit() time.Duration { return 10*(e.warm+e.measure) + 10*time.Second }

// setupOnly times one more set-up and measures nothing else: New, Alloc,
// priming and Close, as a window pays them. Set-up takes milliseconds and
// a window has only one, so a pass takes extra samples of it.
func (w threaded) setupOnly(e env) (time.Duration, error) {
	t0 := time.Now()
	sys, inst, err := w.open(e.seed)
	if err != nil {
		return 0, err
	}
	_, _, note := runGuarded(func() float64 {
		sys.Run(driverThreads, inst.prime)
		return 0
	}, e.watchdogLimit(), sys.Close)
	sys.Close()
	if note != "" {
		return 0, fmt.Errorf("set-up %s", note)
	}
	return time.Since(t0), nil
}

func (w threaded) run(e env) window {
	var (
		win window
		log noteLog
	)
	if e.traced {
		win.trace = newTracer(driverThreads, w.sampleEvery)
	}
	t0 := time.Now()
	sys, inst, err := w.open(e.seed)
	if err != nil {
		win.attempted, win.failed = 1, 1
		win.notes = []string{fmt.Sprintf("munin.New: %v", err)}
		return win
	}

	threads := 1 // whose ops and latencies count
	if w.independent {
		threads = driverThreads
	}
	g := newGate(driverThreads)
	outs := make([]threadOut, driverThreads)
	cal := calibration{warm: e.warm, chunk: 1}
	var (
		perSlice int // ops per thread between looks at the clock; 0 while warming up
		stop     bool
		primed   time.Time
		start    time.Time
		before   counters
	)
	body := func(c munin.Ctx) {
		tid := c.ThreadID()
		out := &outs[tid]
		defer func() {
			if r := recover(); r != nil {
				log.add("thread %d panicked: %v", tid, r)
				g.abort()
			}
		}()
		var tt *threadTrace
		if win.trace != nil {
			tt = win.trace.threads[tid]
			c = &tracedCtx{Ctx: c, t: tt}
		}
		inst.prime(c)
		if !g.wait() {
			return
		}
		if tid == 0 {
			primed = time.Now()
		}
		i := 0
		for perSlice == 0 {
			chunk := cal.chunk
			t := time.Now()
			for k := 0; k < chunk; k++ {
				inst.op(c, i)
				i++
			}
			if !g.wait() {
				return
			}
			if tid == 0 {
				if perSlice = cal.next(time.Since(t)); perSlice > 0 {
					before = snapshot(sys)
					start = time.Now()
				}
			}
			if !g.wait() {
				return
			}
		}
		out.lat = make([]float64, 0, int(1.5*cal.rate*e.measure.Seconds())/period+perSlice)
		if tt != nil {
			tt.begin(start)
		}
		for sliceStart := start; !stop; {
			for k := 0; k < perSlice; k += period {
				t := time.Now()
				end := t
				for j := 0; j < period; j++ {
					opStart := end
					ok := inst.op(c, i)
					end = time.Now()
					if tt != nil {
						tt.endOp(opStart, end)
					}
					i++
					out.done++
					if !ok {
						out.failed++
					}
				}
				out.lat = append(out.lat, float64(end.Sub(t).Nanoseconds())/1e3/float64(period))
			}
			if !g.wait() {
				return
			}
			if tid == 0 {
				now := time.Now()
				win.rates = append(win.rates, float64(perSlice*threads)/now.Sub(sliceStart).Seconds())
				sliceStart = now
				if now.Sub(start) >= e.measure {
					win.counts = snapshot(sys).minus(before)
					stop = true
				}
			}
			if !g.wait() {
				return
			}
		}
		if tt != nil {
			tt.on = false
		}
		// The final check may send messages; the counts are already taken.
		if !inst.finish(c, i) {
			out.failed++
		}
	}

	// A hang must never look like a slow run: the watchdog gives the
	// window ten times its planned length, then closes the system under
	// the stuck threads so their pending calls fail.
	_, _, note := runGuarded(func() float64 {
		sys.Run(driverThreads, body)
		return 0
	}, e.watchdogLimit(), func() {
		g.abort()
		sys.Close()
	})
	if note != "" {
		log.add("Run %s", note)
	}
	tClose := time.Now()
	sys.Close()
	if !primed.IsZero() {
		win.setup = primed.Sub(t0) + time.Since(tClose)
	}

	win.notes = log.take()

	for tid := 0; tid < driverThreads; tid++ {
		win.failed += outs[tid].failed
		if tid < threads {
			win.done += outs[tid].done
			win.lat = append(win.lat, outs[tid].lat...)
		}
	}
	// A broken window is charged the ops its interval had room for.
	win.attempted = max(win.done, 1)
	if win.broken() {
		win.attempted = max(win.attempted, int64(cal.rate*e.measure.Seconds())*int64(threads))
	}
	win.settle()
	return win
}

// values turns a window into the per-window numbers both passes report.
func (w *window) values() map[string]float64 {
	ops := float64(w.done)
	return map[string]float64{
		"setup_s":      w.setup.Seconds(),
		"ops_per_s":    median(w.rates),
		"op_p50_us":    quantile(w.lat, 0.50),
		"op_p99_us":    quantile(w.lat, 0.99),
		"msgs_per_op":  ratio(float64(w.counts.msgs), ops),
		"bytes_per_op": ratio(float64(w.counts.bytes), ops),
		"failed_share": ratio(float64(w.failed), float64(w.attempted)),
	}
}
