package main

import (
	"encoding/json"
	"os"
	"time"

	"munin"
)

// The Ctx calls the traced pass records a span around. callOp is the op
// itself: the parent of every other span recorded while it ran.
type callKind uint8

const (
	callRead callKind = iota
	callWrite
	callAcquire
	callRelease
	callBarrier
	callOp
	numCalls
)

var callNames = [numCalls]string{"read", "write", "acquire", "release", "barrier", "op"}

// span is one timed interval: a Ctx call, or an op. Start and End are
// nanoseconds since the measured interval began; Op is the parent op.
type span struct {
	Call   callKind
	Thread uint8
	Op     uint32
	Start  int64
	End    int64
}

// maxSpans bounds the spans one thread keeps in memory. The totals every
// share is computed from cover all spans; only the per-call medians and
// the -spans file are limited to the first maxSpans of the window.
const maxSpans = 1 << 17

// threadTrace is one driver thread's spans. Only that thread touches it
// while the window runs.
type threadTrace struct {
	id    uint8
	every int // time one read/write in this many
	on    bool
	base  time.Time
	op    uint32
	tick  int
	spans []span
	// count and ns total every span recorded, kept or not.
	count [numCalls]int64
	ns    [numCalls]int64
}

// tracer holds the driver spans of one traced window.
type tracer struct {
	threads []*threadTrace
}

func newTracer(threads, sampleEvery int) *tracer {
	tr := &tracer{}
	for i := 0; i < threads; i++ {
		tr.threads = append(tr.threads, &threadTrace{
			id: uint8(i), every: max(1, sampleEvery), spans: make([]span, 0, maxSpans),
		})
	}
	return tr
}

// begin starts recording; base is the measured interval's start.
func (t *threadTrace) begin(base time.Time) {
	t.base = base
	t.on = true
}

func (t *threadTrace) record(call callKind, start, end time.Time) {
	t.count[call]++
	t.ns[call] += end.Sub(start).Nanoseconds()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Call: call, Thread: t.id, Op: t.op,
			Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
		})
	}
}

// endOp records the op span and moves on to the next op id.
func (t *threadTrace) endOp(start, end time.Time) {
	t.record(callOp, start, end)
	t.op++
}

// tracedCtx records a span around every Ctx call a workload makes. Reads
// and writes are sampled: one in every is timed, the rest pass through.
type tracedCtx struct {
	munin.Ctx
	t *threadTrace
}

func (c *tracedCtx) sampled() bool {
	if !c.t.on {
		return false
	}
	c.t.tick++
	return c.t.tick%c.t.every == 0
}

func (c *tracedCtx) Read(r munin.RegionID, off int, buf []byte) {
	if !c.sampled() {
		c.Ctx.Read(r, off, buf)
		return
	}
	start := time.Now()
	c.Ctx.Read(r, off, buf)
	c.t.record(callRead, start, time.Now())
}

func (c *tracedCtx) Write(r munin.RegionID, off int, data []byte) {
	if !c.sampled() {
		c.Ctx.Write(r, off, data)
		return
	}
	start := time.Now()
	c.Ctx.Write(r, off, data)
	c.t.record(callWrite, start, time.Now())
}

func (c *tracedCtx) Acquire(l munin.LockID) {
	start := time.Now()
	c.Ctx.Acquire(l)
	if c.t.on {
		c.t.record(callAcquire, start, time.Now())
	}
}

func (c *tracedCtx) Release(l munin.LockID) {
	start := time.Now()
	c.Ctx.Release(l)
	if c.t.on {
		c.t.record(callRelease, start, time.Now())
	}
}

func (c *tracedCtx) Barrier(b munin.BarrierID, n int) {
	start := time.Now()
	c.Ctx.Barrier(b, n)
	if c.t.on {
		c.t.record(callBarrier, start, time.Now())
	}
}

// tracedSystem hands every thread of a Run a tracedCtx. The apps workload
// runs study programs written against munin.DSM through it.
type tracedSystem struct {
	munin.DSM
	tr *tracer
}

func (s tracedSystem) Run(nthreads int, body func(c munin.Ctx)) {
	s.DSM.Run(nthreads, func(c munin.Ctx) {
		body(&tracedCtx{Ctx: c, t: s.tr.threads[c.ThreadID()]})
	})
}

// spanMetrics folds the traced windows into the core.* metrics: the
// median duration of each call over every thread's kept spans, and, on
// thread 0, whose clock times the ops, each call's count per op and its
// share of op time. What is left of op time is the workload's own
// compute, core.think_share.
func spanMetrics(traces []*tracer) map[string]float64 {
	out := map[string]float64{}
	var ops, opNs float64
	var calls, callNs [numCalls]float64
	durs := make([][]float64, numCalls)
	for _, tr := range traces {
		for _, t := range tr.threads {
			for _, s := range t.spans {
				if s.Call != callOp {
					durs[s.Call] = append(durs[s.Call], float64(s.End-s.Start)/1e3)
				}
			}
		}
		t0 := tr.threads[0]
		ops += float64(t0.count[callOp])
		opNs += float64(t0.ns[callOp])
		for call := callRead; call < callOp; call++ {
			stride := 1.0
			if call == callRead || call == callWrite {
				stride = float64(t0.every)
			}
			calls[call] += float64(t0.count[call]) * stride
			callNs[call] += float64(t0.ns[call]) * stride
		}
	}
	think := 1.0
	for call := callRead; call < callOp; call++ {
		share := ratio(callNs[call], opNs)
		think -= share
		out["core."+callNames[call]+"_us"] = median(durs[call])
		out["core."+callNames[call]+"_per_op"] = ratio(calls[call], ops)
		out["core."+callNames[call]+"_share"] = share
	}
	out["core.think_share"] = max(think, 0)
	return out
}

// writeSpans dumps the kept spans of every traced window as JSON.
func writeSpans(path string, byWorkload map[string][]*tracer) error {
	type jsonSpan struct {
		Workload string `json:"workload"`
		Window   int    `json:"window"`
		Thread   uint8  `json:"thread"`
		Op       uint32 `json:"op"`
		Name     string `json:"name"`
		Start    int64  `json:"start_ns"`
		End      int64  `json:"end_ns"`
	}
	var all []jsonSpan
	for name, traces := range byWorkload {
		for w, tr := range traces {
			for _, t := range tr.threads {
				for _, s := range t.spans {
					all = append(all, jsonSpan{name, w, s.Thread, s.Op, callNames[s.Call], s.Start, s.End})
				}
			}
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
