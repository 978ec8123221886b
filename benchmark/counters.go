package main

import (
	"runtime"
	"syscall"

	"munin"
	"munin/internal/bufpool"
	"munin/internal/stats"
)

// counters is one reading of everything the program already counts, taken
// at a window edge while the driver threads are parked. The system part
// dies with its munin.System; the process part is global.
type counters struct {
	// system
	msgs, bytes int64
	wire        map[string]int64 // transport.Stats.ByClass: classes and wire.*
	node        map[string]int64 // protocol counters, summed over nodes
	lockLocal   int64
	lockRemote  int64
	// process
	poolGet, poolNew int64
	mallocs          int64
	allocBytes       int64
	gcPauseNs        int64
	cpuNs            int64
}

// systemCounters reads the counters that belong to one system.
func systemCounters(sys *munin.System) counters {
	st := sys.Stats()
	c := counters{
		msgs: st.Messages(), bytes: st.Bytes(),
		wire: st.ByClass(), node: map[string]int64{},
	}
	for i := 0; i < sys.Nodes(); i++ {
		for name, v := range sys.NodeCounters(i) {
			c.node[name] += v
		}
		ls := sys.LockService(i)
		c.lockLocal += ls.LocalAcquires()
		c.lockRemote += ls.RemoteAcquires()
	}
	return c
}

// processCounters reads the process-wide counters: buffer pool, heap,
// collector pauses and CPU time.
func processCounters() counters {
	var c counters
	c.poolGet, _, c.poolNew, _ = bufpool.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = int64(ms.Mallocs)
	c.allocBytes = int64(ms.TotalAlloc)
	c.gcPauseNs = int64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

func snapshot(sys *munin.System) counters {
	return systemCounters(sys).plus(processCounters())
}

// combine returns c + sign*o, field by field.
func (c counters) combine(o counters, sign int64) counters {
	out := c
	out.msgs += sign * o.msgs
	out.bytes += sign * o.bytes
	out.lockLocal += sign * o.lockLocal
	out.lockRemote += sign * o.lockRemote
	out.poolGet += sign * o.poolGet
	out.poolNew += sign * o.poolNew
	out.mallocs += sign * o.mallocs
	out.allocBytes += sign * o.allocBytes
	out.gcPauseNs += sign * o.gcPauseNs
	out.cpuNs += sign * o.cpuNs
	out.wire = combineMaps(c.wire, o.wire, sign)
	out.node = combineMaps(c.node, o.node, sign)
	return out
}

func (c counters) plus(o counters) counters  { return c.combine(o, 1) }
func (c counters) minus(o counters) counters { return c.combine(o, -1) }

func combineMaps(a, b map[string]int64, sign int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += sign * v
	}
	return out
}

// counterUnits names every metric derived from window-edge counters.
var counterUnits = map[string]string{
	"transport.wire_writes_per_op":     "1",
	"transport.msgs_per_write":         "1",
	"transport.bytes_per_msg":          "B",
	"transport.queue_stall_ns_per_op":  "ns",
	"transport.class.lock_per_op":      "1",
	"transport.class.coherence_per_op": "1",
	"transport.class.sync_per_op":      "1",
	"dlock.remote_acquires_per_op":     "1",
	"dlock.local_acquires_per_op":      "1",
	"protocol.fault_read_per_op":       "1",
	"protocol.fault_write_per_op":      "1",
	"protocol.inv_received_per_op":     "1",
	"protocol.fetch_retry_per_op":      "1",
	"protocol.twin_per_op":             "1",
	"protocol.batch_sent_per_op":       "1",
	"protocol.batch_objs_per_batch":    "1",
	"protocol.batch_bytes_per_op":      "B",
	"protocol.home_relay_per_op":       "1",
	"protocol.apply_gap_per_op":        "1",
	"bufpool.hit_ratio":                "1",
	"proc.allocs_per_op":               "1",
	"proc.alloc_bytes_per_op":          "B",
	"proc.gc_pause_us_per_op":          "us",
	"proc.cpu_us_per_op":               "us",
}

// perOp turns a window's counter deltas into the counter metrics.
func (c counters) perOp(ops int64) map[string]float64 {
	n := float64(ops)
	per := func(v int64) float64 { return ratio(float64(v), n) }
	hit := 1.0
	if c.poolGet > 0 {
		hit = 1 - float64(c.poolNew)/float64(c.poolGet)
	}
	return map[string]float64{
		"transport.wire_writes_per_op":     per(c.wire[stats.CWireWrites]),
		"transport.msgs_per_write":         ratio(float64(c.msgs), float64(c.wire[stats.CWireWrites])),
		"transport.bytes_per_msg":          ratio(float64(c.bytes), float64(c.msgs)),
		"transport.queue_stall_ns_per_op":  per(c.wire[stats.CWireQueueStallNs]),
		"transport.class.lock_per_op":      per(c.wire["lock"]),
		"transport.class.coherence_per_op": per(c.wire["coherence"]),
		"transport.class.sync_per_op":      per(c.wire["sync"]),
		"dlock.remote_acquires_per_op":     per(c.lockRemote),
		"dlock.local_acquires_per_op":      per(c.lockLocal),
		"protocol.fault_read_per_op":       per(c.node[stats.CFaultRead]),
		"protocol.fault_write_per_op":      per(c.node[stats.CFaultWrite]),
		"protocol.inv_received_per_op":     per(c.node[stats.CInvReceived]),
		"protocol.fetch_retry_per_op":      per(c.node[stats.CFetchRetry]),
		"protocol.twin_per_op":             per(c.node[stats.CTwin]),
		"protocol.batch_sent_per_op":       per(c.node[stats.CBatchSent]),
		"protocol.batch_objs_per_batch":    ratio(float64(c.node[stats.CBatchObjs]), float64(c.node[stats.CBatchSent])),
		"protocol.batch_bytes_per_op":      per(c.node[stats.CBatchBytes]),
		"protocol.home_relay_per_op":       per(c.node[stats.CHomeRelay]),
		"protocol.apply_gap_per_op":        per(c.node[stats.CApplyGap]),
		"bufpool.hit_ratio":                hit,
		"proc.allocs_per_op":               per(c.mallocs),
		"proc.alloc_bytes_per_op":          per(c.allocBytes),
		"proc.gc_pause_us_per_op":          per(c.gcPauseNs) / 1e3,
		"proc.cpu_us_per_op":               per(c.cpuNs) / 1e3,
	}
}
