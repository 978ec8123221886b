package bench

import (
	"fmt"
	"sync"

	"munin/internal/api"
	"munin/internal/lockrank"
	"munin/internal/protocol"
	"munin/internal/stats"
)

// pacer is a reusable barrier for the n threads of one in-process
// experiment: it fixes the order of their turns, so the traffic an
// experiment counts is its program's and not the schedule's. It is the
// harness's, not the DSM's — a c.Barrier would add its own arrivals
// (lock-class messages) to the very count being taken.
type pacer struct {
	mu      lockrank.Mutex[lockrank.Pacer]
	turned  *sync.Cond
	n       int
	waiting int
	turn    int
}

func newPacer(n int) *pacer {
	p := &pacer{n: n}
	p.turned = sync.NewCond(&p.mu)
	return p
}

// wait returns once all n threads have called it this turn.
func (p *pacer) wait() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiting++
	if p.waiting == p.n {
		p.waiting = 0
		p.turn++
		p.turned.Broadcast()
		return
	}
	for turn := p.turn; turn == p.turn; {
		p.turned.Wait()
	}
}

// E5 measures the §3.3.3 migratory optimization: an object accessed
// only inside a critical section, compared as (a) migratory — the data
// rides inside the lock transfer — vs (b) conventional — the data moves
// through its own ownership protocol on top of the lock traffic.
func E5(nodes int) *Result {
	tab := stats.NewTable("E5: critical-section object, migratory vs conventional (messages)",
		"annotation", "total msgs", "msgs per critical section")
	res := &Result{ID: "E5", Table: tab, Metrics: map[string]float64{}}

	const rounds = 10
	run := func(annot protocol.Annotation) float64 {
		sys := newMunin(nodes)
		defer sys.Close()
		lock := sys.NewLock()
		opts := protocol.DefaultOptions()
		if annot == protocol.Migratory {
			opts.Lock = lock
		}
		r := sys.Alloc("cs", 64, annot, opts, nil)
		before := sys.Messages()
		// Ring of critical sections: each thread increments in turn,
		// forcing the object (and lock) to migrate every section.
		turn := newPacer(nodes)
		sys.Run(nodes, func(c api.Ctx) {
			for i := 0; i < rounds*nodes; i++ {
				if i%nodes == c.ThreadID() {
					c.Acquire(lock)
					api.WriteU64(c, r, 0, api.ReadU64(c, r, 0)+1)
					c.Release(lock)
				}
				turn.wait()
			}
		})
		sections := rounds * nodes
		total := sys.Messages() - before
		perCS := float64(total) / float64(sections)
		tab.AddRow(annot.String(), total, perCS)
		return perCS
	}
	mig := run(protocol.Migratory)
	conv := run(protocol.Conventional)
	res.Metrics["migratory.perCS"] = mig
	res.Metrics["conventional.perCS"] = conv
	res.Notes = append(res.Notes,
		"migratory data adds zero messages beyond the lock transfer itself; conventional pays a separate ownership round per section")
	return res
}

// E6 measures the §3.3.4 producer-consumer mechanism: eager object
// movement should eliminate consumer read faults after the first.
func E6(nodes int) *Result {
	tab := stats.NewTable("E6: producer-consumer eager movement",
		"annotation", "total msgs", "consumer stalls (read faults)")
	res := &Result{ID: "E6", Table: tab, Metrics: map[string]float64{}}

	const epochs = 12
	run := func(annot protocol.Annotation) (int64, int64) {
		sys := newMunin(nodes)
		defer sys.Close()
		r := sys.Alloc("stream", 64, annot, protocol.DefaultOptions(), nil)
		bar := sys.NewBarrier()
		before := sys.Messages()
		sys.Run(nodes, func(c api.Ctx) {
			buf := make([]byte, 8)
			for e := 0; e < epochs; e++ {
				if c.ThreadID() == 0 {
					api.WriteU64(c, r, 0, uint64(e+1))
				}
				c.Barrier(bar, nodes)
				if c.ThreadID() != 0 {
					c.Read(r, 0, buf)
				}
				c.Barrier(bar, nodes)
			}
		})
		msgs := sys.Messages() - before
		var stalls int64
		for i := 0; i < nodes; i++ {
			stalls += sys.NodeCounters(i)["fault.read"]
		}
		tab.AddRow(annot.String(), msgs, stalls)
		return msgs, stalls
	}
	_, pcStalls := run(protocol.ProducerConsumer)
	_, convStalls := run(protocol.Conventional)
	res.Metrics["pc.stalls"] = float64(pcStalls)
	res.Metrics["conventional.stalls"] = float64(convStalls)
	res.Notes = append(res.Notes,
		"with eager movement consumers fault once (registration); under invalidation they fault after every write")
	return res
}

// E7 measures delayed-update combining (§3.2): many writes inside one
// synchronization interval collapse into a single diff message.
func E7(nodes int) *Result {
	tab := stats.NewTable("E7: delayed update queue combining",
		"writes per interval", "flush msgs", "writes per message")
	res := &Result{ID: "E7", Table: tab, Metrics: map[string]float64{}}

	for _, wpi := range []int{1, 8, 64, 256} {
		sys := newMunin(2)
		opts := protocol.DefaultOptions()
		opts.Home = 0 // writer runs on node 1: every flush crosses the wire
		r := sys.Alloc("wm", 1024, protocol.WriteMany, opts, nil)
		var flushMsgs int64
		sys.Run(2, func(c api.Ctx) {
			if c.ThreadID() != 1 {
				return
			}
			// Prime the copy so the flush cost is isolated.
			buf := make([]byte, 8)
			c.Read(r, 0, buf)
			before := sys.Messages()
			for i := 0; i < wpi; i++ {
				api.WriteU64(c, r, (i%128)*8, uint64(i+1))
			}
			c.Flush()
			flushMsgs = sys.Messages() - before
		})
		sys.Close()
		tab.AddRow(wpi, flushMsgs, float64(wpi)/float64(flushMsgs))
		res.Metrics[fmt.Sprintf("flush.%d", wpi)] = float64(flushMsgs)
	}
	res.Notes = append(res.Notes,
		"message count stays flat as writes per interval grow: updates to the same object are combined")
	return res
}

// E8 measures the §3.3.8 proxy benefit: repeated acquisition of a lock
// by the same node is free with proxies and a round trip without.
func E8(nodes int) *Result {
	tab := stats.NewTable("E8: distributed locks — proxy vs naive (messages)",
		"reacquisitions", "proxy msgs", "naive msgs")
	res := &Result{ID: "E8", Table: tab, Metrics: map[string]float64{}}

	run := func(k int, naive bool) int64 {
		sys := newMunin(2)
		defer sys.Close()
		if naive {
			sys.LockService(1).SetNaive(true)
		}
		lock := sys.NewLock() // homed on node 1's peer; either way remote for someone
		var used int64
		sys.Run(2, func(c api.Ctx) {
			if c.ThreadID() != 1 {
				return
			}
			c.Acquire(lock)
			c.Release(lock)
			before := sys.Messages()
			for i := 0; i < k; i++ {
				c.Acquire(lock)
				c.Release(lock)
			}
			used = sys.Messages() - before
		})
		return used
	}
	for _, k := range []int{1, 10, 100} {
		p := run(k, false)
		n := run(k, true)
		tab.AddRow(k, p, n)
		res.Metrics[fmt.Sprintf("proxy.%d", k)] = float64(p)
		res.Metrics[fmt.Sprintf("naive.%d", k)] = float64(n)
	}
	res.Notes = append(res.Notes,
		"proxies make node-local reacquisition free; the naive server pays a round trip every time")
	return res
}

// E9 measures Ivy's false sharing (§5): per-thread counters packed into
// one page ping-pong under strict page coherence, while Munin's
// write-many objects never conflict.
func E9(nodes int) *Result {
	tab := stats.NewTable("E9: false sharing — packed counters (messages)",
		"system", "msgs", "msgs per update round")
	res := &Result{ID: "E9", Table: tab, Metrics: map[string]float64{}}

	const rounds = 20
	runIvy := func() int64 {
		sys := newIvy(nodes, 1024)
		defer sys.Close()
		// All counters in one page.
		ctrs := make([]api.RegionID, nodes)
		for i := range ctrs {
			ctrs[i] = sys.Alloc(fmt.Sprintf("ctr%d", i), 8, protocol.Conventional, protocol.DefaultOptions(), nil)
		}
		bar := sys.NewBarrier()
		before := sys.Messages()
		sys.Run(nodes, func(c api.Ctx) {
			for i := 0; i < rounds; i++ {
				api.WriteU64(c, ctrs[c.ThreadID()], 0, uint64(i))
				c.Barrier(bar, nodes)
			}
		})
		return sys.Messages() - before
	}
	runMunin := func() int64 {
		sys := newMunin(nodes)
		defer sys.Close()
		ctrs := make([]api.RegionID, nodes)
		for i := range ctrs {
			ctrs[i] = sys.Alloc(fmt.Sprintf("ctr%d", i), 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		}
		bar := sys.NewBarrier()
		before := sys.Messages()
		sys.Run(nodes, func(c api.Ctx) {
			for i := 0; i < rounds; i++ {
				api.WriteU64(c, ctrs[c.ThreadID()], 0, uint64(i))
				c.Barrier(bar, nodes)
			}
		})
		return sys.Messages() - before
	}
	iv := runIvy()
	mu := runMunin()
	tab.AddRow("ivy (1KB pages)", iv, float64(iv)/float64(rounds))
	tab.AddRow("munin (write-many)", mu, float64(mu)/float64(rounds))
	res.Metrics["ivy.msgs"] = float64(iv)
	res.Metrics["munin.msgs"] = float64(mu)
	res.Notes = append(res.Notes,
		"independent counters sharing a page contend under Ivy; Munin's per-object write-many protocol is unaffected")
	return res
}

// E10 measures the batched flush pipeline: K dirty write-many objects
// homed on one remote node, flushed at a single synchronization point.
// A serial program — one that flushes after every write — pays one
// round trip per object (2K messages); flushing once combines them
// into one batch message plus one acknowledgment, so messages-per-sync
// stays flat as K grows — the same combine-at-sync argument the paper
// makes for multiple writes to one object (§3.2), lifted to multiple
// objects. Both programs run the one flush path the protocol has.
func E10(nodes int) *Result {
	tab := stats.NewTable("E10: flush batching — messages per synchronization",
		"dirty objects", "serial msgs", "batched msgs", "serial/batched")
	res := &Result{ID: "E10", Table: tab, Metrics: map[string]float64{}}

	run := func(k int, serial bool) int64 {
		sys := newMunin(2)
		defer sys.Close()
		opts := protocol.DefaultOptions()
		opts.Home = 0 // writer runs on node 1: every flush crosses the wire
		regions := make([]api.RegionID, k)
		for i := range regions {
			regions[i] = sys.Alloc(fmt.Sprintf("wm%d", i), 64, protocol.WriteMany, opts, nil)
		}
		var flushMsgs int64
		sys.Run(2, func(c api.Ctx) {
			if c.ThreadID() != 1 {
				return
			}
			// Prime the copies so the flush cost is isolated.
			buf := make([]byte, 8)
			for _, r := range regions {
				c.Read(r, 0, buf)
			}
			before := sys.Messages()
			dirtyAndFlush(c, regions, serial)
			flushMsgs = sys.Messages() - before
		})
		return flushMsgs
	}

	for _, k := range []int{1, 4, 16, 64} {
		serial := run(k, true)
		batched := run(k, false)
		tab.AddRow(k, serial, batched, float64(serial)/float64(batched))
		res.Metrics[fmt.Sprintf("serial.%d", k)] = float64(serial)
		res.Metrics[fmt.Sprintf("batched.%d", k)] = float64(batched)
	}
	res.Notes = append(res.Notes,
		"serial grows as 2K (K diffs + K acks); batched stays at 2 (one batch + one ack) regardless of K")
	return res
}

// dirtyAndFlush is the measured step of E10/E11: one buffered write to
// every region, propagated by one flush at the end — or, for the serial
// baseline, by a flush after every write.
func dirtyAndFlush(c api.Ctx, regions []api.RegionID, serial bool) {
	for _, r := range regions {
		api.WriteU64(c, r, 0, 1)
		if serial {
			c.Flush()
		}
	}
	c.Flush()
}

// E11 runs the E10 flush workload over real TCP sockets: K dirty
// write-many objects homed on one remote node, flushed at a single
// synchronization point. E10 showed the protocol-level message count
// staying flat in K; without wire-level coalescing that win evaporates
// into one write syscall per message on a real socket. With the
// transport's per-peer writer pipeline the whole batch leaves as one
// vectored write, so syscall-level writes per sync stay flat (O(1) per
// destination) while the flush-per-write program pays O(K).
func E11(nodes int) *Result {
	tab := stats.NewTable("E11: flush over TCP — coalesced wire writes per synchronization",
		"dirty objects", "serial writes", "batched writes", "batched msgs", "serial/batched writes")
	res := &Result{ID: "E11", Table: tab, Metrics: map[string]float64{}}

	run := func(k int, serial bool) (writes, msgs int64) {
		sys := newMuninTCP(2)
		defer sys.Close()
		opts := protocol.DefaultOptions()
		opts.Home = 0 // writer runs on node 1: every flush crosses the wire
		regions := make([]api.RegionID, k)
		for i := range regions {
			regions[i] = sys.Alloc(fmt.Sprintf("wm%d", i), 64, protocol.WriteMany, opts, nil)
		}
		sys.Run(2, func(c api.Ctx) {
			if c.ThreadID() != 1 {
				return
			}
			// Prime the copies so the flush cost is isolated.
			buf := make([]byte, 8)
			for _, r := range regions {
				c.Read(r, 0, buf)
			}
			st := sys.Stats()
			beforeW, beforeM := st.WireWrites(), st.Messages()
			dirtyAndFlush(c, regions, serial)
			writes = st.WireWrites() - beforeW
			msgs = st.Messages() - beforeM
		})
		return writes, msgs
	}

	for _, k := range []int{1, 4, 16, 64} {
		serialW, _ := run(k, true)
		batchedW, batchedM := run(k, false)
		tab.AddRow(k, serialW, batchedW, batchedM, float64(serialW)/float64(batchedW))
		res.Metrics[fmt.Sprintf("serial.writes.%d", k)] = float64(serialW)
		res.Metrics[fmt.Sprintf("batched.writes.%d", k)] = float64(batchedW)
		res.Metrics[fmt.Sprintf("batched.msgs.%d", k)] = float64(batchedM)
	}
	res.Notes = append(res.Notes,
		"serial pays ~2K write syscalls per sync (one per diff, one per ack); the writer pipeline emits the batch as one vectored write per destination, so batched writes stay flat in K")
	return res
}

// All runs every experiment and returns the results in order.
func All(nodes int) []*Result {
	return []*Result{
		F1(nodes), T1(nodes), E1(nodes), E2(nodes), E3(nodes),
		E4(nodes), E5(nodes), E6(nodes), E7(nodes), E8(nodes), E9(nodes),
		E10(nodes), E11(nodes), E12(nodes), E13(nodes), E14(nodes),
		E16(nodes), E17(nodes),
	}
}
