package main

import (
	"fmt"
	"io"
)

// term is one step on the path that blocks an op: how many times per op
// the step is taken, and the probe that says what one costs.
type term struct {
	what  string
	count func(get func(string) float64) float64
	probe string
}

func metricCount(name string, factor float64) func(func(string) float64) float64 {
	return func(get func(string) float64) float64 { return factor * get(name) }
}

func fixed(n float64) func(func(string) float64) float64 {
	return func(func(string) float64) float64 { return n }
}

// The blocking path of one op, per workload. core.*_per_op are thread 0's
// own calls, the thread whose clock times the op. Counters are summed
// over both threads: they count in full where the threads take turns
// (sync, fault) and by half where they work side by side (apps); in
// flush each thread flushes once a round, side by side. The apps' own
// flushes carry one or two objects, a shape no probe has, so they stay
// unattributed.
//
// What the model leaves out is reported as trace.unattributed_share, not
// spread over the terms: time inside the program that no probe isolates
// — queueing behind the other thread, scheduler wake-ups, the collector —
// needs spans recorded inside the program, which is a later change. The
// share goes negative where the probed steps overlap in the workload (in
// sync the barrier's wait covers part of the other thread's acquire) or
// cost more alone than in place. The probes run on the workload's own
// GOMAXPROCS, so a hop costs in the probe what it costs in the window.
var blockingPath = map[string][]term{
	"hit": {
		{"read hit, node shared by 2 threads", metricCount("core.read_per_op", 1), "core.read_hit_ns.t2"},
		{"buffered write hit", metricCount("core.write_per_op", 1), "core.write_hit_ns.t1"},
	},
	"sync": {
		{"remote acquire (request, recall, surrender, grant)", metricCount("dlock.remote_acquires_per_op", 1), "dlock.acquire_remote_us"},
		{"barrier", metricCount("core.barrier_per_op", 1), "dlock.barrier_us"},
		{"read hit", metricCount("core.read_per_op", 1), "core.read_hit_ns.t1"},
		{"write hit", metricCount("core.write_per_op", 1), "core.write_hit_ns.t1"},
	},
	"flush": {
		{"buffered write hit", metricCount("core.write_per_op", 1), "core.write_hit_ns.t1"},
		{"flush of 32 dirty 1 KB objects", fixed(1), "protocol.flush_us.32x1k"},
		{"barrier", metricCount("core.barrier_per_op", 1), "dlock.barrier_us"},
		{"read hit", metricCount("core.read_per_op", 1), "core.read_hit_ns.t1"},
	},
	"fault": {
		{"write fault, 4 KB, reader invalidated", metricCount("protocol.fault_write_per_op", 1), "protocol.fault_write_us.4k"},
		{"read fault, 4 KB", metricCount("protocol.fault_read_per_op", 1), "protocol.fault_read_us.4k"},
		{"barrier", metricCount("core.barrier_per_op", 1), "dlock.barrier_us"},
	},
	"apps": {
		{"Run: spawn and exit flush (program, then checksum)", fixed(2), "core.run_us"},
		{"read hit", metricCount("core.read_per_op", 1), "core.read_hit_ns.t1"},
		{"write hit", metricCount("core.write_per_op", 1), "core.write_hit_ns.t1"},
		{"read fault", metricCount("protocol.fault_read_per_op", 0.5), "protocol.fault_read_us.4k"},
		{"barrier", metricCount("core.barrier_per_op", 1), "dlock.barrier_us"},
	},
}

// microseconds converts a probe's value to µs by its declared unit.
func microseconds(probe string, v float64) float64 {
	switch probeUnits[probe] {
	case "ns":
		return v / 1e3
	case "ms":
		return v * 1e3
	}
	return v
}

// attribute sums count × probe cost along the workload's blocking path
// and reports it as a share of the median op latency.
func attribute(workload string, get func(string) float64) map[string]float64 {
	p50 := get("op_p50_us")
	sum := 0.0
	for _, t := range blockingPath[workload] {
		sum += t.count(get) * microseconds(t.probe, get(t.probe))
	}
	share := ratio(sum, p50)
	return map[string]float64{
		"trace.attributed_share":   share,
		"trace.unattributed_share": 1 - share,
	}
}

// printAttribution prints the attribution table of a traced pass.
func printAttribution(w io.Writer, workload string, r workloadResult) {
	get := func(name string) float64 { return r.Metrics[name].Value }
	p50 := get("op_p50_us")
	fmt.Fprintf(w, "\n%s: where the median op (%.1f us) goes, counts x probe costs\n", workload, p50)
	fmt.Fprintf(w, "  %-52s %10s %12s %12s %7s\n", "step on the blocking path", "per op", "us each", "us per op", "share")
	for _, t := range blockingPath[workload] {
		n, each := t.count(get), microseconds(t.probe, get(t.probe))
		fmt.Fprintf(w, "  %-52s %10.2f %12.3f %12.2f %6.1f%%   %s\n",
			t.what, n, each, n*each, 100*ratio(n*each, p50), t.probe)
	}
	fmt.Fprintf(w, "  %-52s %36s %6.1f%%\n", "attributed", "", 100*get("trace.attributed_share"))
	fmt.Fprintf(w, "  %-52s %36s %6.1f%%\n", "unattributed", "", 100*get("trace.unattributed_share"))
	fmt.Fprintf(w, "  tracing cost %.1f%% of throughput (trace.overhead_share)\n", 100*get("trace.overhead_share"))
}
