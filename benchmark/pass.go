package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// pass is one run of the benchmark over a workload: untraced for the
// end-to-end metrics, or traced for the per-layer ones.
type pass struct {
	seed    int64
	windows int
	traced  bool
	budget  time.Duration // warm-up plus measuring time of the whole pass
}

// warmShare is the part of a window spent warming up and calibrating the
// op count; the rest is the measured interval.
const warmShare = 0.1

// extraSetups is how many set-ups an untraced pass times after each
// window on top of the window's own. One set-up takes a millisecond or
// ten and its samples range over a factor of three, so the median needs
// a few dozen of them.
const extraSetups = 8

// tracedWindowShare is the part of a traced pass's budget its windows get;
// the layer probes take the rest.
const tracedWindowShare = 0.5

var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us",
	"msgs_per_op": "1", "bytes_per_op": "B", "failed_share": "1",
}

func (p pass) env(windows int, share float64, traced bool) env {
	per := time.Duration(float64(p.budget) * share / float64(windows))
	warm := time.Duration(float64(per) * warmShare)
	return env{seed: p.seed, warm: warm, measure: per - warm, traced: traced}
}

// run measures one workload. Every reported value is the median over the
// pass's windows; a traced pass also returns the windows' spans.
func (p pass) run(w workload) (workloadResult, []*tracer) {
	r := workloadResult{Name: w.name, Procs: w.procs, Correct: true, Metrics: map[string]metric{}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	perWindow := map[string][]float64{}
	account := func(win window) {
		r.Attempted += win.attempted
		r.Failed += win.failed
		r.Notes = append(r.Notes, win.notes...)
	}
	collect := func(values map[string]float64) {
		for name, v := range values {
			perWindow[name] = append(perWindow[name], v)
		}
	}

	var traces []*tracer
	if !p.traced {
		e := p.env(p.windows, 1, false)
		for k := 0; k < p.windows && len(r.Notes) == 0; k++ {
			win := w.run(e)
			account(win)
			collect(win.values())
			for j := 0; j < extraSetups && w.setup != nil; j++ {
				d, err := w.setup(e)
				if err != nil {
					r.Notes = append(r.Notes, err.Error())
					break
				}
				perWindow["setup_s"] = append(perWindow["setup_s"], d.Seconds())
			}
		}
	} else {
		// Untraced and traced windows alternate. Counters and the traffic
		// figures come from the untraced ones, spans from the traced
		// ones, and the gap in throughput is what tracing costs.
		pairs := (p.windows + 1) / 2
		plain, spans := p.env(2*pairs, tracedWindowShare, false), p.env(2*pairs, tracedWindowShare, true)
		var tracedRate []float64
		for k := 0; k < pairs && len(r.Notes) == 0; k++ {
			u := w.run(plain)
			account(u)
			collect(u.values())
			collect(u.counts.perOp(u.done))
			t := w.run(spans)
			account(t)
			traces = append(traces, t.trace)
			tracedRate = append(tracedRate, t.values()["ops_per_s"])
		}
		layer := spanMetrics(traces)
		probed, err := probes(min(1, p.budget.Seconds()/20))
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("layer probes: %v", err))
		}
		for name := range probeUnits {
			layer[name] = probed[name]
		}
		layer["trace.overhead_share"] = 1 - ratio(median(tracedRate), median(perWindow["ops_per_s"]))
		collect(layer)
		collect(attribute(w.name, func(name string) float64 { return median(perWindow[name]) }))
	}

	for name, vs := range perWindow {
		r.Metrics[name] = summarize(unitOf(name), vs)
	}
	if msgs := r.Metrics["msgs_per_op"].Value; w.silent && msgs != 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%s sent %v messages per op; it must send none", w.name, msgs))
	}
	r.Correct = r.Failed == 0 && len(r.Notes) == 0
	return r, traces
}

// layerUnits names every per-layer metric that does not come from a
// window-edge counter: driver spans, layer probes and the attribution.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"core.think_share":         "1",
		"trace.attributed_share":   "1",
		"trace.unattributed_share": "1",
		"trace.overhead_share":     "1",
	}
	for call := callRead; call < callOp; call++ {
		u["core."+callNames[call]+"_us"] = "us"
		u["core."+callNames[call]+"_per_op"] = "1"
		u["core."+callNames[call]+"_share"] = "1"
	}
	for name, unit := range probeUnits {
		u[name] = unit
	}
	return u
}()

// unitOf returns the unit of any metric a pass reports.
func unitOf(name string) string {
	for _, units := range []map[string]string{endToEndUnits, counterUnits, layerUnits} {
		if u, ok := units[name]; ok {
			return u
		}
	}
	return ""
}

// perLayerNames lists every metric a traced pass reports, sorted.
func perLayerNames() []string {
	names := declNames(sideDecls)
	for name := range counterUnits {
		names = append(names, name)
	}
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
