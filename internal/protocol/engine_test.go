package protocol

import (
	"bytes"
	"testing"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
)

// leaseOpts pins the home and selects the lease engine per object.
func leaseOpts(home int) Options {
	o := DefaultOptions()
	o.Home = msg.NodeID(home)
	o.Engine = EngineLease
	return o
}

// ---------------------------------------------------------------------
// Engine selection and resolution

func TestEngineKindStrings(t *testing.T) {
	if EngineDefault.String() != "default" || EngineDirectory.String() != "directory" ||
		EngineLease.String() != "lease" {
		t.Fatal("engine names wrong")
	}
	if EngineKind(9).String() == "" {
		t.Fatal("unknown engine empty")
	}
}

// TestEngineResolvesPerAnnotation: an allocation with the zero Engine
// installs its annotation's directory row, and a per-object
// Options.Engine picks the engine for that object alone.
func TestEngineResolvesPerAnnotation(t *testing.T) {
	r := newRig(t, 2)
	lease := DefaultOptions()
	lease.Engine = EngineLease
	dir := DefaultOptions()
	dir.Engine = EngineDirectory
	r.alloc(1, "conv", 8, Conventional, DefaultOptions(), nil)
	r.alloc(2, "rm", 8, ReadMostly, DefaultOptions(), nil)
	r.alloc(3, "rm-lease", 8, ReadMostly, lease, nil)
	r.alloc(4, "rm-dir", 8, ReadMostly, dir, nil)
	forced := DefaultOptions()
	forced.ForceReplicated = true
	r.alloc(5, "rm-forced", 8, ReadMostly, forced, nil)
	for _, c := range []struct {
		id   memory.ObjectID
		row  *policy
		kind EngineKind
	}{
		{1, &rows[Conventional], EngineDirectory},
		{2, &rows[ReadMostly], EngineDirectory},
		{3, &leaseRow, EngineLease},
		{4, &rows[ReadMostly], EngineDirectory},
		{5, &replicatedRow, EngineDirectory},
	} {
		for i, n := range r.nodes {
			o := n.mustObj(c.id)
			if pol := o.pol.Load(); pol != c.row || pol.engine != c.kind || o.meta.Opts.Engine != c.kind {
				t.Fatalf("node %d object %d: row engine %v, resolved engine %v, want %v",
					i, c.id, pol.engine, o.meta.Opts.Engine, c.kind)
			}
		}
	}
}

// TestEngineTravelsInAnnounce: the allocating node resolves the engine
// and the announce carries it, so a node that only decodes the announce
// installs the same row.
func TestEngineTravelsInAnnounce(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Engine = EngineLease
	r.alloc(2, "rm", 8, ReadMostly, opts, u64bytes(5)) // home = node 0
	for i, n := range r.nodes {
		if pol := n.mustObj(2).pol.Load(); pol != &leaseRow {
			t.Fatalf("node %d installed the %v engine's row", i, pol.engine)
		}
	}
}

func TestLeaseRequiresReadMostly(t *testing.T) {
	r := newRig(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("lease engine on a conventional object did not panic")
		}
	}()
	opts := DefaultOptions()
	opts.Engine = EngineLease
	r.alloc(1, "bad", 8, Conventional, opts, nil)
}

// ---------------------------------------------------------------------
// Lease protocol behavior

// TestLeaseReadLocalUntilSync: the first read takes a lease (one round
// trip), repeats are free, and the lease lapses exactly at the reader's
// next synchronization point.
func TestLeaseReadLocalUntilSync(t *testing.T) {
	r := newRig(t, 3)
	q := duq.New()
	r.alloc(3, "rm", 8, ReadMostly, leaseOpts(0), u64bytes(7))

	if got := readU64(r.nodes[1], q, 3, 0); got != 7 {
		t.Fatalf("first read = %d", got)
	}
	if g := r.nodes[0].C.Snapshot()["lease.granted"]; g != 1 {
		t.Fatalf("lease.granted = %d", g)
	}
	before := msgs(r)
	for i := 0; i < 5; i++ {
		if got := readU64(r.nodes[1], q, 3, 0); got != 7 {
			t.Fatalf("leased read = %d", got)
		}
	}
	if msgs(r) != before {
		t.Fatal("leased reads sent messages")
	}

	// The home writes; the unsynchronized reader legally still sees the
	// old version locally (§3.2 loose coherence).
	r.nodes[0].Write(q, 3, 0, u64bytes(8))
	if msgs(r) != before {
		t.Fatal("home write under the lease engine sent messages")
	}
	if got := readU64(r.nodes[1], q, 3, 0); got != 7 {
		t.Fatalf("unsynchronized read = %d, want stale 7", got)
	}

	// Synchronize: the lease lapses, the next read revalidates and the
	// grant ships the fresh bytes.
	r.nodes[1].FlushQueue(q)
	if got := readU64(r.nodes[1], q, 3, 0); got != 8 {
		t.Fatalf("post-sync read = %d, want 8", got)
	}
	c := r.nodes[1].C.Snapshot()
	if c["lease.expired_reads"] == 0 {
		t.Fatal("lease.expired_reads not counted")
	}
	if c["rm.remote_reads"] != 2 {
		t.Fatalf("rm.remote_reads = %d, want 2 (take + revalidate)", c["rm.remote_reads"])
	}
	if g := r.nodes[0].C.Snapshot()["lease.renewed"]; g != 1 {
		t.Fatalf("lease.renewed = %d", g)
	}
}

// TestLeaseRenewalUnchangedIsDataFree: revalidating an unchanged object
// costs a version echo, not the bytes.
func TestLeaseRenewalUnchangedIsDataFree(t *testing.T) {
	r := newRig(t, 2)
	q := duq.New()
	size := 1 << 12
	init := bytes.Repeat([]byte{0xAB}, size)
	r.alloc(2, "big", size, ReadMostly, leaseOpts(0), init)

	buf := make([]byte, size)
	r.nodes[1].Read(q, 2, 0, buf) // take
	bytesBefore := r.c.Stats().Bytes()
	r.nodes[1].FlushQueue(q) // lapse the lease; object unchanged
	r.nodes[1].Read(q, 2, 0, buf)
	renewal := r.c.Stats().Bytes() - bytesBefore
	if renewal >= int64(size) {
		t.Fatalf("unchanged renewal moved %d bytes (object is %d)", renewal, size)
	}
	if g := r.nodes[0].C.Snapshot()["lease.renewed"]; g != 1 {
		t.Fatalf("lease.renewed = %d", g)
	}
}

// TestLeaseWriteThroughReadYourWrites: a remote writer whose lease was
// current installs its own bytes and keeps reading locally.
func TestLeaseWriteThroughReadYourWrites(t *testing.T) {
	r := newRig(t, 2)
	q := duq.New()
	r.alloc(2, "rm", 8, ReadMostly, leaseOpts(0), u64bytes(1))

	if got := readU64(r.nodes[1], q, 2, 0); got != 1 {
		t.Fatalf("prime read = %d", got)
	}
	r.nodes[1].Write(q, 2, 0, u64bytes(2)) // write-through; ver contiguous
	before := msgs(r)
	if got := readU64(r.nodes[1], q, 2, 0); got != 2 {
		t.Fatalf("read-your-write = %d", got)
	}
	if msgs(r) != before {
		t.Fatal("read after own write left the node")
	}
	// And the home really has the bytes.
	if got := readU64(r.nodes[0], q, 2, 0); got != 2 {
		t.Fatalf("home = %d", got)
	}
}

// TestLeaseWriteRaceDropsLease: when another node's write slips between
// a writer's lease version and its own write-through, the writer's copy
// is missing bytes — the lease must drop so the next read refetches.
func TestLeaseWriteRaceDropsLease(t *testing.T) {
	r := newRig(t, 3)
	q := duq.New()
	r.alloc(3, "rm", 16, ReadMostly, leaseOpts(0), nil)

	var b [16]byte
	r.nodes[1].Read(q, 3, 0, b[:]) // node 1 leases ver 0
	// Node 2 writes the low half: home ver -> 1.
	r.nodes[2].Write(q, 3, 0, u64bytes(0xAA))
	// Node 1 writes the high half: home ver -> 2, but node 1's copy
	// never saw ver 1, so installing would lose node 2's bytes.
	r.nodes[1].Write(q, 3, 8, u64bytes(0xBB))
	o := r.nodes[1].mustObj(3)
	o.mu.Lock()
	valid := o.leaseValid
	o.mu.Unlock()
	if valid {
		t.Fatal("non-contiguous write-through kept the lease")
	}
	// The refetch sees both halves.
	if lo, hi := readU64(r.nodes[1], q, 3, 0), readU64(r.nodes[1], q, 3, 8); lo != 0xAA || hi != 0xBB {
		t.Fatalf("refetched %x %x", lo, hi)
	}
}

// TestLeaseWriteNoFanOut is the E16 claim in miniature: with K leased
// readers, a home write costs ZERO messages under the lease engine,
// while the directory machine's replicated mode relays to every copy.
func TestLeaseWriteNoFanOut(t *testing.T) {
	const nodes = 4
	q := duq.New()

	perWrite := func(opts Options) int64 {
		r := newRig(t, nodes)
		r.alloc(4, "rm", 8, ReadMostly, opts, u64bytes(1)) // home = node 0
		for i := 1; i < nodes; i++ {
			readU64(r.nodes[i], q, 4, 0) // prime every reader's copy
		}
		before := msgs(r)
		r.nodes[0].Write(q, 4, 0, u64bytes(2))
		return msgs(r) - before
	}

	dir := DefaultOptions()
	dir.Home = msg.NodeID(0)
	dir.ForceReplicated = true
	if d := perWrite(dir); d < int64(nodes-1) {
		t.Fatalf("directory replicated write sent %d messages, want >= %d fan-out", d, nodes-1)
	}
	if d := perWrite(leaseOpts(0)); d != 0 {
		t.Fatalf("lease write sent %d messages, want 0", d)
	}
}

// ---------------------------------------------------------------------
// ReadMostly && ForceReplicated under both engines

// TestForceReplicatedBothEngines: a force-replicated read-mostly object
// must serve repeat reads locally from the very first access under BOTH
// engines — one priming fetch, then zero traffic.
func TestForceReplicatedBothEngines(t *testing.T) {
	for _, eng := range []EngineKind{EngineDirectory, EngineLease} {
		t.Run(eng.String(), func(t *testing.T) {
			r := newRig(t, 3)
			q := duq.New()
			opts := DefaultOptions()
			opts.Home = msg.NodeID(0)
			opts.ForceReplicated = true
			opts.Engine = eng
			r.alloc(3, "rm", 8, ReadMostly, opts, u64bytes(9))

			if got := readU64(r.nodes[2], q, 3, 0); got != 9 {
				t.Fatalf("priming read = %d", got)
			}
			before := msgs(r)
			for i := 0; i < 4; i++ {
				if got := readU64(r.nodes[2], q, 3, 0); got != 9 {
					t.Fatalf("replicated read = %d", got)
				}
			}
			if d := msgs(r) - before; d != 0 {
				t.Fatalf("replicated re-reads sent %d messages under %v", d, eng)
			}
			if c := r.nodes[2].C.Snapshot()["rm.remote_reads"]; c != 1 {
				t.Fatalf("rm.remote_reads = %d, want 1 priming fetch", c)
			}
		})
	}
}

// ---------------------------------------------------------------------
// §3.4.2 refresh→invalidate adaptation (directory engine)

// TestUpdModeAdaptsInvalidateToRefresh drives the untested dynamic
// update-mode machine: start in invalidate mode, make the dropped
// copies refetch, and assert the home switches to refresh — after which
// readers stay valid across writes.
func TestUpdModeAdaptsInvalidateToRefresh(t *testing.T) {
	r := newRig(t, 3)
	q := duq.New()
	opts := DefaultOptions()
	opts.Home = msg.NodeID(0)
	opts.ForceReplicated = true
	opts.Dynamic = true
	opts.Update = Invalidate
	r.alloc(3, "adapt", 8, ReadMostly, opts, u64bytes(0))

	// Both remote nodes join the copyset.
	readU64(r.nodes[1], q, 3, 0)
	readU64(r.nodes[2], q, 3, 0)

	// Write #1 (invalidate mode): drops both copies.
	r.nodes[2].Write(q, 3, 0, u64bytes(1))
	if got := r.nodes[0].C.Snapshot()["mode.switch"]; got != 0 {
		t.Fatalf("premature mode.switch = %d", got)
	}
	// Both dropped copies refetch before the next write — rereads(2)*2
	// >= dropped(1): refreshing would have been cheaper.
	if a, b := readU64(r.nodes[1], q, 3, 0), readU64(r.nodes[2], q, 3, 0); a != 1 || b != 1 {
		t.Fatalf("refetch = %d %d", a, b)
	}

	// Write #2: the home notices and switches to refresh.
	r.nodes[2].Write(q, 3, 0, u64bytes(2))
	if got := r.nodes[0].C.Snapshot()["mode.switch"]; got != 1 {
		t.Fatalf("mode.switch = %d, want 1", got)
	}
	// Refresh mode: node 1's copy was pushed the new bytes — reading it
	// costs nothing.
	before := msgs(r)
	if got := readU64(r.nodes[1], q, 3, 0); got != 2 {
		t.Fatalf("refreshed read = %d", got)
	}
	if msgs(r) != before {
		t.Fatal("refreshed copy still refetched")
	}

	// Every copy byte-identical after the adaptation.
	for i, n := range r.nodes {
		if got := readU64(n, q, 3, 0); got != 2 {
			t.Fatalf("node %d sees %d after adaptation", i, got)
		}
	}
}

// TestUpdModeRefreshProbesEveryEighth: in dynamic refresh mode the home
// re-measures with an invalidation on every 8th update.
func TestUpdModeRefreshProbesEveryEighth(t *testing.T) {
	r := newRig(t, 2)
	q := duq.New()
	opts := DefaultOptions()
	opts.Home = msg.NodeID(0)
	opts.ForceReplicated = true
	opts.Dynamic = true
	opts.Update = Refresh
	r.alloc(2, "probe", 8, ReadMostly, opts, u64bytes(0))

	readU64(r.nodes[1], q, 2, 0) // join the copyset
	for i := 1; i <= 8; i++ {
		r.nodes[0].Write(q, 2, 0, u64bytes(uint64(i)))
	}
	// Write #8 probed with an invalidation: node 1's copy is invalid
	// and the next read must refetch (but still sees the final value).
	o := r.nodes[1].mustObj(2)
	o.mu.Lock()
	st := o.state
	o.mu.Unlock()
	if st != Invalid {
		t.Fatalf("state after probe = %v, want invalid", st)
	}
	if got := readU64(r.nodes[1], q, 2, 0); got != 8 {
		t.Fatalf("post-probe read = %d", got)
	}
}

// ---------------------------------------------------------------------
// Differential oracle: one scripted read-mostly workload, every engine
// configuration, byte-identical final memory everywhere.

func TestEnginesDifferentialOracle(t *testing.T) {
	const nodes, size = 3, 64

	run := func(opts Options) [][]byte {
		r := newRig(t, nodes)
		q := duq.New()
		r.alloc(3, "oracle", size, ReadMostly, opts, nil)
		// Interleave reads and writes from every node, with sync points
		// scattered through (writes go through the home, so later
		// writes win regardless of engine — the schedule is
		// deterministic).
		for step := 0; step < 24; step++ {
			w := r.nodes[(step*7)%nodes]
			w.Write(q, 3, (step%8)*8, u64bytes(uint64(step*131+17)))
			rd := r.nodes[(step*5+1)%nodes]
			var b [8]byte
			rd.Read(q, 3, (step%8)*8, b[:])
			if step%5 == 0 {
				rd.FlushQueue(q)
			}
		}
		// Final synchronization + read on every node.
		out := make([][]byte, nodes)
		for i, n := range r.nodes {
			n.FlushQueue(q)
			out[i] = make([]byte, size)
			n.Read(q, 3, 0, out[i])
		}
		return out
	}

	configs := map[string]Options{}
	dir := DefaultOptions()
	dir.Home = msg.NodeID(0)
	configs["directory-remote"] = dir
	rep := dir
	rep.ForceReplicated = true
	configs["directory-replicated"] = rep
	dyn := rep
	dyn.Dynamic = true
	dyn.Update = Invalidate
	configs["directory-dynamic-invalidate"] = dyn
	configs["lease"] = leaseOpts(0)

	var want []byte
	for name, opts := range configs {
		outs := run(opts)
		for i := 1; i < nodes; i++ {
			if !bytes.Equal(outs[i], outs[0]) {
				t.Fatalf("%s: node %d diverged from node 0\n%x\n%x", name, i, outs[i], outs[0])
			}
		}
		if want == nil {
			want = outs[0]
		} else if !bytes.Equal(outs[0], want) {
			t.Fatalf("%s: final memory differs from other engines\n%x\n%x", name, outs[0], want)
		}
	}
	if want == nil || bytes.Equal(want, make([]byte, size)) {
		t.Fatal("oracle workload left memory zero — vacuous")
	}
}
