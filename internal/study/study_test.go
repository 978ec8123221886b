package study

import (
	"testing"

	"munin/internal/api"
	"munin/internal/apps"
	"munin/internal/core"
	"munin/internal/protocol"
)

func tracedSystem(t *testing.T, nodes int) *Tracer {
	t.Helper()
	s, err := core.New(core.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(s)
	t.Cleanup(tr.Close)
	return tr
}

func TestClassifyPrivate(t *testing.T) {
	accs := []access{{1, 0, true}, {2, 0, false}, {3, 0, true}}
	if got := classifyObject("p", accs); got.Class != ClassPrivate {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyWriteOnce(t *testing.T) {
	// Thread 0 initializes, then threads 1-3 only read.
	accs := []access{
		{1, 0, true}, {2, 0, true},
		{3, 1, false}, {4, 2, false}, {5, 3, false}, {6, 1, false},
	}
	if got := classifyObject("wo", accs); got.Class != ClassWriteOnce {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyResult(t *testing.T) {
	// Threads 1-3 write their slots; thread 0 reads everything.
	accs := []access{
		{1, 1, true}, {2, 2, true}, {3, 3, true},
		{4, 0, false}, {5, 0, false},
	}
	if got := classifyObject("res", accs); got.Class != ClassResult {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyProducerConsumer(t *testing.T) {
	// Thread 0 writes repeatedly; threads 1,2 read repeatedly.
	accs := []access{
		{1, 0, true}, {2, 1, false}, {3, 2, false},
		{4, 0, true}, {5, 1, false}, {6, 2, false},
	}
	if got := classifyObject("pc", accs); got.Class != ClassProducerConsumer {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyMigratory(t *testing.T) {
	// Runs of read+write by one thread at a time.
	accs := []access{
		{1, 0, false}, {2, 0, true},
		{3, 1, false}, {4, 1, true},
		{5, 2, false}, {6, 2, true},
		{7, 0, false}, {8, 0, true},
	}
	if got := classifyObject("mig", accs); got.Class != ClassMigratory {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyReadMostly(t *testing.T) {
	accs := []access{{1, 0, true}}
	for i := 2; i < 40; i++ {
		accs = append(accs, access{int64(i), i % 3, false})
	}
	// One early write by thread 0 then reads from everyone, including
	// writers: not write-once (writer reads), read/write ratio high.
	accs = append(accs, access{100, 1, true})
	for i := 101; i < 140; i++ {
		accs = append(accs, access{int64(i), i % 3, false})
	}
	if got := classifyObject("rm", accs); got.Class != ClassReadMostly {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestClassifyWriteMany(t *testing.T) {
	// Interleaved writes from several threads with reads mixed in.
	var accs []access
	for i := 0; i < 24; i++ {
		accs = append(accs, access{int64(2*i + 1), i % 4, false})
		accs = append(accs, access{int64(2*i + 2), i % 4, true})
	}
	// Break the migratory pattern: alternate threads every access.
	got := classifyObject("wm", accs)
	if got.Class != ClassWriteMany && got.Class != ClassMigratory {
		t.Fatalf("class = %s", got.Class)
	}
}

func TestStudyOnMatMul(t *testing.T) {
	tr := tracedSystem(t, 2)
	app := apps.MatMul{N: 12, Threads: 4, Seed: 1}
	app.Run(tr)
	rep := tr.Classify("matmul")
	// A and B must classify write-once; C result.
	classes := map[string]Class{}
	for _, o := range rep.Objects {
		classes[o.Name] = o.Class
	}
	if classes["matmul.A"] != ClassWriteOnce || classes["matmul.B"] != ClassWriteOnce {
		t.Fatalf("inputs misclassified: %v", classes)
	}
	if classes["matmul.C"] != ClassResult {
		t.Fatalf("result misclassified: %v", classes)
	}
	if rep.GeneralRWShare() > 0.05 {
		t.Fatalf("general-rw share = %v, want tiny", rep.GeneralRWShare())
	}
	if rep.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestStudyOnLife(t *testing.T) {
	tr := tracedSystem(t, 2)
	app := apps.Life{Rows: 12, Cols: 8, Generations: 3, Threads: 4, Seed: 6}
	app.Run(tr)
	rep := tr.Classify("life")
	// Boundary rows must classify producer-consumer; bands private.
	var pc, priv int
	for _, o := range rep.Objects {
		switch o.Class {
		case ClassProducerConsumer:
			pc++
		case ClassPrivate:
			priv++
		}
	}
	if pc == 0 {
		t.Fatalf("no producer-consumer objects found: %+v", rep.Objects)
	}
	if priv == 0 {
		t.Fatalf("no private objects found")
	}
}

func TestStudyReadDominanceAndSyncGap(t *testing.T) {
	// Gauss synchronizes every step, so the init/steady split is
	// meaningful; reads (pivot row + own row per update) dominate.
	tr := tracedSystem(t, 2)
	app := apps.Gauss{N: 16, Threads: 4, Seed: 2}
	app.Run(tr)
	rep := tr.Classify("gauss")
	if rf := rep.ReadFraction(); rf < 0.5 {
		t.Fatalf("steady-state read fraction = %v, want > 0.5", rf)
	}
	if rep.SteadyReads+rep.InitReads <= rep.SteadyWrites+rep.InitWrites {
		t.Fatal("reads do not dominate writes in gauss")
	}
}

func TestStudySyncLatencyClaim(t *testing.T) {
	// TSP hammers locks around long compute stretches: sync gaps must
	// exceed data gaps (paper finding 4).
	tr := tracedSystem(t, 2)
	app := apps.TSP{Cities: 7, Threads: 4, Seed: 5}
	app.Run(tr)
	rep := tr.Classify("tsp")
	if rep.SyncOps == 0 {
		t.Fatal("no sync ops traced")
	}
	if rep.MeanSyncGap <= rep.MeanDataGap {
		t.Fatalf("sync gap %v <= data gap %v; paper expects sync >> data",
			rep.MeanSyncGap, rep.MeanDataGap)
	}
}

func TestTracerPassesThrough(t *testing.T) {
	tr := tracedSystem(t, 2)
	r := tr.Alloc("x", 8, protocol.Conventional, protocol.DefaultOptions(), nil)
	lock := tr.NewLock()
	bar := tr.NewBarrier()
	at := tr.NewAtomic()
	tr.Run(2, func(c api.Ctx) {
		c.Acquire(lock)
		api.WriteU64(c, r, 0, api.ReadU64(c, r, 0)+1)
		c.Release(lock)
		c.FetchAdd(at, 1)
		c.Barrier(bar, 2)
	})
	var v uint64
	tr.Run(1, func(c api.Ctx) { v = api.ReadU64(c, r, 0) })
	if v != 2 {
		t.Fatalf("counter = %d, want 2", v)
	}
	if tr.Messages() == 0 || tr.Nodes() != 2 || tr.Name() == "" {
		t.Fatal("pass-through accessors broken")
	}
	rep := tr.Classify("mini")
	if len(rep.Objects) != 1 {
		t.Fatalf("objects = %d", len(rep.Objects))
	}
	if rep.SyncOps != 2*4+1 { // 2 threads × (lock,unlock,fetchadd,barrier) + ... final run has none
		// 2 threads × 4 ops = 8 sync ops.
		if rep.SyncOps != 8 {
			t.Fatalf("sync ops = %d, want 8", rep.SyncOps)
		}
	}
}

// TestTracerSeesEveryTypedAccess: the typed helpers reach a wrapped
// Ctx's Read and Write. core's Ctx serves them through word methods that
// skip the slice path, and a wrapper that embeds api.Ctx must not pick
// those up — every ReadU64, WriteU64 and ReadU32 is recorded, including
// reads of a write-once replica the inner Ctx would answer from its
// translation table.
func TestTracerSeesEveryTypedAccess(t *testing.T) {
	const per = 50
	tr := tracedSystem(t, 2)
	once := tr.Alloc("once", 64, protocol.WriteOnce, protocol.DefaultOptions(), nil)
	many := tr.Alloc("many", 64, protocol.WriteMany, protocol.DefaultOptions(), nil)
	tr.Run(2, func(c api.Ctx) {
		if _, ok := c.(interface {
			ReadWord(r api.RegionID, off, size int) uint64
		}); ok {
			t.Error("the traced Ctx has the inner Ctx's word methods")
		}
		for k := 0; k < per; k++ {
			api.ReadU64(c, once, k%8*8)
			api.ReadU32(c, once, k%16*4)
			api.WriteU64(c, many, c.ThreadID()*32, uint64(k))
			api.ReadU32(c, many, c.ThreadID()*32+4)
		}
	})
	count := func(r api.RegionID) (reads, writes int) {
		for _, a := range tr.objs[r].accesses {
			if a.write {
				writes++
			} else {
				reads++
			}
		}
		return reads, writes
	}
	if r, w := count(once); r != 2*2*per || w != 0 {
		t.Errorf("write-once object: %d reads, %d writes recorded; want %d, 0", r, w, 2*2*per)
	}
	if r, w := count(many); r != 2*per || w != 2*per {
		t.Errorf("write-many object: %d reads, %d writes recorded; want %d, %d", r, w, 2*per, 2*per)
	}
}
