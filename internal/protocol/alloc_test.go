package protocol

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
)

// TestFlushPlanEncodeZeroAllocs pins the protocol half of the
// zero-copy flush pipeline: in steady state, recording buffered writes
// in the object's dirty set, reading the set off into the pooled flush
// scratch, and encoding the complete wire message into a pooled buffer
// performs zero heap allocations. (The vkernel call bookkeeping and the
// transport writer are measured separately; this is the plan+encode
// stage TryFlushQueue runs.)
func TestFlushPlanEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	n := new(Node)
	q := duq.New()
	o := &Obj{data: make([]byte, 4096)}
	var v [1]byte
	step := func() {
		fs := getFlushScratch()
		defer putFlushScratch(fs)
		v[0]++
		o.mu.Lock()
		for i := 0; i < len(o.data); i += 256 {
			n.storeBuffered(q, o, i, v[:])
		}
		spans := o.takeDirty(fs)
		o.mu.Unlock()
		if len(spans) != len(o.data)/256 {
			t.Fatalf("took %d spans, want %d", len(spans), len(o.data)/256)
		}
		// Encode both shapes: a batch of one and a batch of two. Both
		// are kindDiffBatch payloads led by their entry count.
		fs.grouped = append(fs.grouped,
			batchEntry{id: 1, spans: spans},
			batchEntry{id: 2, spans: spans})
		for n := 1; n <= 2; n++ {
			wb := encodeDiffBatch(fs.grouped[:n])
			if got := binary.BigEndian.Uint32(wb.B[msg.HeaderSize:]); got != uint32(n) {
				t.Fatalf("batch of %d encoded with count word %d", n, got)
			}
			wb.Release()
		}
	}

	for i := 0; i < 32; i++ {
		step() // warm the pools and grow the arenas to steady state
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state flush plan+encode allocated %v times per op, want 0", allocs)
	}
}

// TestDirtySetLifecycle follows one object's dirty set through the real
// write and flush calls: allocation leaves it empty, the first changing
// write makes the object dirty (counted once, under the counter name the
// twin left behind), a store of the bytes already there does not, a flush
// takes the set, and the next write starts a new interval.
func TestDirtySetLifecycle(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(2, "wm", 16, WriteMany, DefaultOptions(), nil) // home = node 0
	n, q := r.nodes[1], duq.New()
	o := n.mustObj(2)
	dirty := func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return !o.dirty.Empty()
	}
	if dirty() {
		t.Fatal("a freshly allocated object is dirty")
	}
	n.Write(q, 2, 0, u64bytes(0)) // faults the copy in, changes nothing
	if dirty() || n.C.Get("twin") != 0 {
		t.Fatalf("a store of the bytes already there: dirty=%v, twin=%d", dirty(), n.C.Get("twin"))
	}
	n.Write(q, 2, 0, u64bytes(7))
	n.Write(q, 2, 8, u64bytes(9))
	if !dirty() || n.C.Get("twin") != 1 {
		t.Fatalf("after two changing writes: dirty=%v, twin=%d, want true, 1", dirty(), n.C.Get("twin"))
	}
	n.FlushQueue(q)
	if dirty() {
		t.Fatal("the flush left the set non-empty")
	}
	if got := n.C.Get("diff.bytes"); got != 2 {
		t.Fatalf("diff.bytes = %d, want 2 (the low byte of each word)", got)
	}
	n.Write(q, 2, 0, u64bytes(8))
	if !dirty() || n.C.Get("twin") != 2 {
		t.Fatalf("first write of the next interval: dirty=%v, twin=%d, want true, 2", dirty(), n.C.Get("twin"))
	}
}

// BenchmarkEncodeDiffBatch measures the one-pass pooled encode of a
// delayed-update batch: the one-entry message a flush-per-write program
// sends, and a 16-object batch.
func BenchmarkEncodeDiffBatch(b *testing.B) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	entries := make([]batchEntry, 16)
	for i := range entries {
		entries[i] = batchEntry{
			id:    memory.ObjectID(i + 1),
			spans: []memory.Span{{Off: 0, Data: data[:64]}, {Off: 128, Data: data[128:]}},
		}
	}
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeDiffBatch(entries[:n]).Release()
			}
		})
	}
}

// TestWholeObjectTransferAllocBudget pins the one-copy-per-hop message
// path end to end: a Conventional 4 KB object bounces between a writer
// and a reader over real sockets, homed on a third node, so every round
// moves the whole object across three hops (the home, owner since the
// last read, grants it to the writer; the reader's fault pulls it
// writer → home → reader). The sender encodes o.data straight into
// a pooled wire buffer and the receiver keeps the frame the bytes
// arrived in, so the only per-transfer heap allocation of object size
// is that frame. Before, each transfer allocated the object six times
// (snapshot, Builder, Marshal, frame, dispatch copy, fetch copy).
func TestWholeObjectTransferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates, and sync.Pool drops buffers under it")
	}
	const size, transfersPerRound = 4096, 3
	r := newTCPRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 2
	r.alloc(1, "page", size, Conventional, opts, nil)
	qs := []*duq.Queue{duq.New(), duq.New()}
	page := make([]byte, size)
	round := func(i int) {
		r.nodes[1].Write(qs[1], 1, 0, u64bytes(uint64(i)))
		r.nodes[0].Read(qs[0], 1, 0, page)
		if got := binary.BigEndian.Uint64(page); got != uint64(i) {
			t.Fatalf("round %d: reader saw %d", i, got)
		}
	}
	for i := 0; i < 64; i++ {
		round(i) // warm the pools, the queues and the writers' scratch
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools mid-measure
	const rounds = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round(64 + i)
	}
	runtime.ReadMemStats(&after)
	perTransfer := float64(after.TotalAlloc-before.TotalAlloc) / (rounds * transfersPerRound)
	t.Logf("%.0f B allocated per 4 KB transfer (%.2f x object size)", perTransfer, perTransfer/size)
	if perTransfer > 2.5*size {
		t.Fatalf("a %d B transfer allocates %.0f B, budget is 2.5 x object size", size, perTransfer)
	}
}
