// Package bench is the experiment harness: one function per figure,
// table, or quantitative claim in the paper, each regenerating the
// corresponding result over the simulated cluster. The experiment index
// lives in README.md ("Experiments:"). Every figure that does not
// depend on the schedule is asserted exactly by this package's tests;
// wall-clock performance is benchmark/'s business, not this package's.
package bench

import (
	"fmt"
	"strings"

	"munin/internal/api"
	"munin/internal/apps"
	"munin/internal/core"
	"munin/internal/ivy"
	"munin/internal/mp"
	"munin/internal/protocol"
	"munin/internal/stats"
	"munin/internal/study"
	"munin/internal/transport"
)

// Result is one experiment's rendered output plus headline numbers the
// tests assert on.
type Result struct {
	ID      string
	Table   *stats.Table
	Notes   []string
	Metrics map[string]float64
}

// String renders the experiment result.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Experiment %s ===\n", r.ID)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

func newMunin(nodes int) *core.System {
	s, err := core.New(core.Config{Nodes: nodes})
	if err != nil {
		panic(err)
	}
	return s
}

// newMuninTCP builds a Munin system over real loopback sockets, for the
// experiments that measure the wire path itself (E11).
func newMuninTCP(nodes int) *core.System {
	s, err := core.New(core.Config{Nodes: nodes, Transport: "tcp"})
	if err != nil {
		panic(err)
	}
	return s
}

func newIvy(nodes, page int) *ivy.System {
	s, err := ivy.New(ivy.Config{Nodes: nodes, PageSize: page})
	if err != nil {
		panic(err)
	}
	return s
}

// F1 demonstrates Figure 1: the observable difference between strict
// and loose coherence. Thread B updates an object; before B reaches a
// synchronization point, a concurrent reader C on another node may
// legally observe the old value under loose coherence (Munin
// write-many), whereas strict coherence (Ivy) makes every write
// immediately visible. After synchronization both agree.
func F1(nodes int) *Result {
	tab := stats.NewTable("Figure 1: legal read results under strict vs loose coherence",
		"system", "coherence", "read before writer syncs", "read after sync")
	res := &Result{ID: "F1", Table: tab, Metrics: map[string]float64{}}

	run := func(sys api.System, name, coherence string) (before, after uint64) {
		r := sys.Alloc("x", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		bar := sys.NewBarrier()
		sys.Run(2, func(c api.Ctx) {
			switch c.ThreadID() {
			case 0: // writer (thread B in the figure)
				api.WriteU64(c, r, 0, 41)
				c.Barrier(bar, 2) // W4 ... synch
				api.WriteU64(c, r, 0, 42)
				c.Barrier(bar, 2)
			case 1: // reader (thread C)
				c.Barrier(bar, 2)
				before = api.ReadU64(c, r, 0) // R2: before writer's next sync
				c.Barrier(bar, 2)             // writer flushed here
				after = api.ReadU64(c, r, 0)  // R3: after sync
			}
		})
		tab.AddRow(name, coherence, fmt.Sprintf("%d (41 or 42 legal)", before), after)
		return before, after
	}

	ms := newMunin(nodes)
	b1, a1 := run(ms, "munin", "loose")
	ms.Close()
	is := newIvy(nodes, 1024)
	b2, a2 := run(is, "ivy", "strict")
	is.Close()

	res.Metrics["munin.after"] = float64(a1)
	res.Metrics["ivy.after"] = float64(a2)
	res.Metrics["munin.before"] = float64(b1)
	res.Metrics["ivy.before"] = float64(b2)
	res.Notes = append(res.Notes,
		"loose coherence: the 41 seen before the sync is a legal delayed value; after the sync both systems must (and do) return 42")
	return res
}

// T1 reproduces the Section 2 sharing study across the six programs.
func T1(nodes int) *Result {
	tab := stats.NewTable("Section 2 sharing study (six programs)",
		"program", "objects", "general-rw %accesses", "steady read %", "sync/data gap ratio")
	res := &Result{ID: "T1", Table: tab, Metrics: map[string]float64{}}

	type prog struct {
		name string
		run  func(sys api.System)
	}
	progs := []prog{
		{"matmul", func(s api.System) { apps.MatMul{N: 16, Threads: 4, Seed: 1}.Run(s) }},
		{"gauss", func(s api.System) { apps.Gauss{N: 16, Threads: 4, Seed: 2}.Run(s) }},
		{"fft", func(s api.System) { apps.FFT{N: 64, Threads: 4, Seed: 3}.Run(s) }},
		// Large enough that the work queue reliably spreads ranges over
		// every thread; with a tiny array one fast thread can drain the
		// whole queue, which degenerates the array's sharing pattern.
		{"qsort", func(s api.System) { apps.QSort{N: 1500, Threads: 4, Seed: 4, Threshold: 24}.Run(s) }},
		{"tsp", func(s api.System) { apps.TSP{Cities: 7, Threads: 4, Seed: 5}.Run(s) }},
		{"life", func(s api.System) { apps.Life{Rows: 16, Cols: 12, Generations: 4, Threads: 4, Seed: 6}.Run(s) }},
	}
	var worstGeneral float64
	for _, p := range progs {
		tr := study.NewTracer(newMunin(nodes))
		p.run(tr)
		rep := tr.Classify(p.name)
		tr.Close()
		ratio := 0.0
		if rep.MeanDataGap > 0 {
			ratio = rep.MeanSyncGap / rep.MeanDataGap
		}
		g := 100 * rep.GeneralRWShare()
		if g > worstGeneral {
			worstGeneral = g
		}
		tab.AddRow(p.name, len(rep.Objects), g, 100*rep.ReadFraction(), ratio)
	}
	res.Metrics["worst.generalrw.pct"] = worstGeneral
	res.Notes = append(res.Notes,
		"paper finding 1: 'there are very few General Read-Write objects'",
		"paper finding 3: 'the overwhelming majority of all accesses are reads, except during initialization'",
		"paper finding 4: 'latency between accesses to synchronization objects is significantly higher'")
	return res
}

// E1 compares total traffic for the six applications across Munin, Ivy
// and (where implemented) hand-coded message passing.
func E1(nodes int) *Result {
	tab := stats.NewTable("E1: traffic per application (messages / KB)",
		"app", "munin msgs", "munin KB", "ivy msgs", "ivy KB", "mp msgs", "mp KB", "ivy/munin msgs")
	res := &Result{ID: "E1", Table: tab, Metrics: map[string]float64{}}

	type entry struct {
		name  string
		run   func(sys api.System)
		mpRun func(h *mp.Harness) (ok bool)
	}
	es := []entry{
		{"matmul", func(s api.System) { apps.MatMul{N: 24, Threads: nodes, Seed: 1}.Run(s) },
			func(h *mp.Harness) bool {
				m := apps.MatMul{N: 24, Threads: nodes, Seed: 1}
				h.MatMul(m.N, m.ElemA, m.ElemB)
				return true
			}},
		{"gauss", func(s api.System) { apps.Gauss{N: 24, Threads: nodes, Seed: 2}.Run(s) },
			func(h *mp.Harness) bool {
				g := apps.Gauss{N: 24, Threads: nodes, Seed: 2}
				h.Gauss(g.N, g.Elem)
				return true
			}},
		{"fft", func(s api.System) { apps.FFT{N: 128, Threads: nodes, Seed: 3}.Run(s) },
			func(h *mp.Harness) bool {
				if nodes&(nodes-1) != 0 {
					return false // binary-exchange FFT needs 2^k nodes
				}
				f := apps.FFT{N: 128, Threads: nodes, Seed: 3}
				h.FFT(f.N, f.Sample)
				return true
			}},
		{"qsort", func(s api.System) { apps.QSort{N: 512, Threads: nodes, Seed: 4, Threshold: 64}.Run(s) },
			func(h *mp.Harness) bool {
				q := apps.QSort{N: 512, Threads: nodes, Seed: 4}
				h.QSort(q.N, q.Value)
				return true
			}},
		{"tsp", func(s api.System) { apps.TSP{Cities: 8, Threads: nodes, Seed: 5}.Run(s) },
			func(h *mp.Harness) bool {
				t := apps.TSP{Cities: 8, Threads: nodes, Seed: 5}
				h.TSP(t.Cities, 3, t.Dist)
				return true
			}},
		{"life", func(s api.System) { apps.Life{Rows: 32, Cols: 24, Generations: 6, Threads: nodes, Seed: 6}.Run(s) },
			func(h *mp.Harness) bool {
				l := apps.Life{Rows: 32, Cols: 24, Generations: 6, Threads: nodes, Seed: 6}
				h.Life(l.Rows, l.Cols, l.Generations, l.AliveAtInit)
				return true
			}},
	}
	for _, e := range es {
		ms := newMunin(nodes)
		e.run(ms)
		mm, mb := ms.Messages(), ms.Bytes()
		ms.Close()

		is := newIvy(nodes, 1024)
		e.run(is)
		im, ib := is.Messages(), is.Bytes()
		is.Close()

		mpMsgs, mpBytes := "-", "-"
		if e.mpRun != nil {
			h, err := mp.NewHarness(nodes, transport.CostModel{})
			if err == nil {
				if e.mpRun(h) {
					mpMsgs = fmt.Sprintf("%d", h.Messages())
					mpBytes = fmt.Sprintf("%.1f", float64(h.Bytes())/1024)
					res.Metrics["mp."+e.name+".msgs"] = float64(h.Messages())
					res.Metrics["mp."+e.name+".bytes"] = float64(h.Bytes())
				}
				h.Close()
			}
		}
		res.Metrics["munin."+e.name+".bytes"] = float64(mb)
		ratio := float64(im) / float64(mm)
		tab.AddRow(e.name, mm, float64(mb)/1024, im, float64(ib)/1024, mpMsgs, mpBytes, ratio)
		res.Metrics["munin."+e.name+".msgs"] = float64(mm)
		res.Metrics["ivy."+e.name+".msgs"] = float64(im)
	}
	res.Notes = append(res.Notes,
		"expected shape: Munin well below Ivy on write-shared apps; Munin within a small factor of hand-coded MP",
		"schedule-dependent, so compare shapes not digits: munin gauss and fft (a few messages either way), munin qsort and tsp and mp tsp (work is handed out from a shared queue), and every ivy column; munin matmul and life and the other mp figures repeat exactly")
	return res
}

// E2 reproduces the paper's matrix-multiply discussion (§3.2): under
// strict coherence the result matrix bounces between machines; with
// delayed updates the results are propagated once to their final
// destination. We sweep N and report result-object traffic.
func E2(nodes int) *Result {
	tab := stats.NewTable("E2: matmul result-matrix traffic (delayed updates vs strict)",
		"N", "munin msgs", "ivy msgs", "ivy/munin")
	res := &Result{ID: "E2", Table: tab, Metrics: map[string]float64{}}
	for _, n := range []int{16, 32, 48} {
		m := apps.MatMul{N: n, Threads: nodes, Seed: 1}
		ms := newMunin(nodes)
		m.Run(ms)
		mm := ms.Messages()
		ms.Close()
		is := newIvy(nodes, 1024)
		m.Run(is)
		im := is.Messages()
		is.Close()
		tab.AddRow(n, mm, im, float64(im)/float64(mm))
		res.Metrics[fmt.Sprintf("ratio.%d", n)] = float64(im) / float64(mm)
	}
	res.Notes = append(res.Notes, "the gap grows with N: each C row moves once under Munin, repeatedly under Ivy")
	return res
}

// E3 is the §3.4.1 dynamic decision: replication vs remote load/store
// for read-mostly data, swept over the read fraction of the access mix.
func E3(nodes int) *Result {
	tab := stats.NewTable("E3: read-mostly — remote load/store vs replication (messages)",
		"reads per write", "remote l/s msgs", "replicated msgs", "winner")
	res := &Result{ID: "E3", Table: tab, Metrics: map[string]float64{}}

	workload := func(sys api.System, readsPerWrite int, force bool) int64 {
		opts := protocol.DefaultOptions()
		opts.ForceReplicated = force
		r := sys.Alloc("rm", 64, protocol.ReadMostly, opts, nil)
		before := sys.Messages()
		// Every reader reads between one write and the next, so the
		// copyset a write finds is the program's, not the schedule's.
		round := newPacer(nodes)
		sys.Run(nodes, func(c api.Ctx) {
			buf := make([]byte, 8)
			for i := 0; i < 20; i++ {
				if c.ThreadID() == 0 && i%2 == 0 {
					api.WriteU64(c, r, 0, uint64(i))
				}
				round.wait()
				for k := 0; k < readsPerWrite/2; k++ {
					c.Read(r, 0, buf)
				}
				round.wait()
			}
		})
		return sys.Messages() - before
	}
	var crossoverSeen bool
	prevWinner := ""
	for _, rpw := range []int{1, 2, 8, 32} {
		ms := newMunin(nodes)
		remote := workload(ms, rpw, false)
		ms.Close()
		ms2 := newMunin(nodes)
		repl := workload(ms2, rpw, true)
		ms2.Close()
		winner := "replicated"
		if remote < repl {
			winner = "remote"
		}
		if prevWinner != "" && winner != prevWinner {
			crossoverSeen = true
		}
		prevWinner = winner
		tab.AddRow(rpw, remote, repl, winner)
		res.Metrics[fmt.Sprintf("remote.%d", rpw)] = float64(remote)
		res.Metrics[fmt.Sprintf("repl.%d", rpw)] = float64(repl)
	}
	if crossoverSeen {
		res.Metrics["crossover"] = 1
	}
	res.Notes = append(res.Notes,
		"each approach wins somewhere: remote load/store when writes are frequent, replication when reads dominate (§3.4.1)")
	return res
}

// E4 is the §3.4.2 decision: invalidate vs refresh for a replicated
// object, swept over how many nodes re-read between writes (the
// Eggers-Katz locality axis).
func E4(nodes int) *Result {
	tab := stats.NewTable("E4: invalidate vs refresh for replicated copies (messages)",
		"re-readers per write", "invalidate msgs", "refresh msgs", "winner")
	res := &Result{ID: "E4", Table: tab, Metrics: map[string]float64{}}

	workload := func(sys api.System, rereaders int, mode protocol.UpdateMode) int64 {
		opts := protocol.DefaultOptions()
		opts.ForceReplicated = true
		opts.Update = mode
		opts.Home = 0
		r := sys.Alloc("rm", 64, protocol.ReadMostly, opts, nil)
		bar := sys.NewBarrier()
		before := sys.Messages()
		sys.Run(nodes, func(c api.Ctx) {
			buf := make([]byte, 8)
			c.Read(r, 0, buf) // join the copyset
			c.Barrier(bar, nodes)
			for i := 0; i < 16; i++ {
				if c.ThreadID() == 0 {
					api.WriteU64(c, r, 0, uint64(i))
				}
				c.Barrier(bar, nodes)
				if c.ThreadID() != 0 && c.ThreadID() <= rereaders {
					c.Read(r, 0, buf)
				}
				c.Barrier(bar, nodes)
			}
		})
		return sys.Messages() - before
	}
	prev := ""
	cross := false
	for _, rr := range []int{0, 1, nodes - 1} {
		ms := newMunin(nodes)
		inv := workload(ms, rr, protocol.Invalidate)
		ms.Close()
		ms2 := newMunin(nodes)
		ref := workload(ms2, rr, protocol.Refresh)
		ms2.Close()
		winner := "refresh"
		if inv < ref {
			winner = "invalidate"
		}
		if prev != "" && winner != prev {
			cross = true
		}
		prev = winner
		tab.AddRow(rr, inv, ref, winner)
		res.Metrics[fmt.Sprintf("inv.%d", rr)] = float64(inv)
		res.Metrics[fmt.Sprintf("ref.%d", rr)] = float64(ref)
	}
	if cross {
		res.Metrics["crossover"] = 1
	}
	res.Notes = append(res.Notes,
		"Eggers-Katz: invalidation wins with per-processor locality (few re-readers), refresh wins under fine-grained sharing (many re-readers)")
	return res
}
