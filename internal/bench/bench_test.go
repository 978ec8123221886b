package bench

import (
	"os"
	"strings"
	"testing"
)

// TestMain lets E12 re-execute this test binary as its home/writer
// child processes (see MeshChildMain).
func TestMain(m *testing.M) {
	if MeshChildMain() {
		return
	}
	os.Exit(m.Run())
}

// The experiment assertions below are the reproduction criteria: not
// absolute numbers, but the paper's shapes — who wins, by roughly what
// factor, where crossovers fall.

func TestF1LooseVsStrict(t *testing.T) {
	r := F1(2)
	// After synchronization both systems must return the new value.
	if r.Metrics["munin.after"] != 42 || r.Metrics["ivy.after"] != 42 {
		t.Fatalf("post-sync values: %+v", r.Metrics)
	}
	// Strict coherence must show the latest write even before the sync.
	if r.Metrics["ivy.before"] != 41 && r.Metrics["ivy.before"] != 42 {
		t.Fatalf("ivy pre-sync value corrupt: %v", r.Metrics["ivy.before"])
	}
	// Loose: either 41 (delayed) or 42 — both legal; just not garbage.
	if b := r.Metrics["munin.before"]; b != 41 && b != 42 && b != 0 {
		t.Fatalf("munin pre-sync value illegal: %v", b)
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Fatal("render broken")
	}
}

func TestT1SharingStudyFindings(t *testing.T) {
	r := T1(4)
	// "There are very few General Read-Write objects": under 10% of
	// accesses in every program.
	if r.Metrics["worst.generalrw.pct"] > 10 {
		t.Fatalf("general read-write share too high: %v%%", r.Metrics["worst.generalrw.pct"])
	}
	if r.Table.NumRows() != 6 {
		t.Fatalf("expected 6 programs, got %d rows", r.Table.NumRows())
	}
}

func TestE1MuninBeatsIvy(t *testing.T) {
	r := E1(4)
	// Write-shared numeric apps: Munin must move fewer messages.
	for _, app := range []string{"gauss", "fft", "life", "matmul"} {
		mu := r.Metrics["munin."+app+".msgs"]
		iv := r.Metrics["ivy."+app+".msgs"]
		if mu >= iv {
			t.Errorf("%s: munin %v msgs >= ivy %v msgs", app, mu, iv)
		}
	}
}

func TestE1MuninNearHandCodedMP(t *testing.T) {
	r := E1(4)
	// The delayed-update claim, measured in data volume: Munin ships
	// within an order of magnitude of the bytes a hand-coded
	// message-passing program ships (matmul ≈2x, life ≈4x, gauss
	// ≈10x). Message counts are further apart on gauss because the
	// DSM pays explicit barrier messages where hand-coded MP gets
	// synchronization implicitly from data arrival — the exact
	// phenomenon §3.3.2 discusses.
	for _, app := range []string{"matmul", "gauss", "life"} {
		mu := r.Metrics["munin."+app+".bytes"]
		mp := r.Metrics["mp."+app+".bytes"]
		if mp == 0 {
			t.Fatalf("no mp baseline for %s", app)
		}
		if mu > 12*mp {
			t.Errorf("%s: munin %v bytes vs mp %v bytes — more than 12x", app, mu, mp)
		}
	}
}

func TestE2ResultMatrixGapGrows(t *testing.T) {
	r := E2(4)
	if r.Metrics["ratio.16"] <= 1 {
		t.Fatalf("ivy/munin ratio at N=16 is %v, want > 1", r.Metrics["ratio.16"])
	}
	if r.Metrics["ratio.48"] <= 1 {
		t.Fatalf("ivy/munin ratio at N=48 is %v, want > 1", r.Metrics["ratio.48"])
	}
}

func TestE3ReplicationVsRemoteCrossover(t *testing.T) {
	r := E3(4)
	// At the read-heavy end replication must win.
	if r.Metrics["repl.32"] >= r.Metrics["remote.32"] {
		t.Fatalf("replication not cheaper at 32 reads/write: repl=%v remote=%v",
			r.Metrics["repl.32"], r.Metrics["remote.32"])
	}
}

func TestE4InvalidateVsRefresh(t *testing.T) {
	r := E4(4)
	// No re-readers: invalidation must win (nothing to refresh).
	if r.Metrics["inv.0"] >= r.Metrics["ref.0"] {
		t.Fatalf("invalidate not cheaper with 0 re-readers: inv=%v ref=%v",
			r.Metrics["inv.0"], r.Metrics["ref.0"])
	}
	// Everyone re-reads: refresh must win (one multicast vs N refetches).
	last := r.Metrics["inv.3"]
	lastRef := r.Metrics["ref.3"]
	if lastRef >= last {
		t.Fatalf("refresh not cheaper with all re-readers: inv=%v ref=%v", last, lastRef)
	}
}

func TestE5MigratoryCheaper(t *testing.T) {
	r := E5(3)
	if r.Metrics["migratory.perCS"] >= r.Metrics["conventional.perCS"] {
		t.Fatalf("migratory %v msgs/CS >= conventional %v msgs/CS",
			r.Metrics["migratory.perCS"], r.Metrics["conventional.perCS"])
	}
}

func TestE6EagerMovementEliminatesStalls(t *testing.T) {
	r := E6(3)
	if r.Metrics["pc.stalls"] >= r.Metrics["conventional.stalls"] {
		t.Fatalf("producer-consumer stalls %v >= conventional %v",
			r.Metrics["pc.stalls"], r.Metrics["conventional.stalls"])
	}
	// Consumers stall at most once each (registration).
	if r.Metrics["pc.stalls"] > 3 {
		t.Fatalf("pc stalls = %v, want <= nodes-1", r.Metrics["pc.stalls"])
	}
}

func TestE7CombiningFlattens(t *testing.T) {
	r := E7(2)
	if r.Metrics["flush.256"] > 2*r.Metrics["flush.1"] {
		t.Fatalf("flush messages grew with writes per interval: 1→%v, 256→%v",
			r.Metrics["flush.1"], r.Metrics["flush.256"])
	}
}

func TestE8ProxiesFree(t *testing.T) {
	r := E8(2)
	if r.Metrics["proxy.100"] != 0 {
		t.Fatalf("proxy reacquisition cost %v msgs, want 0", r.Metrics["proxy.100"])
	}
	if r.Metrics["naive.100"] < 100 {
		t.Fatalf("naive reacquisition cost %v msgs, want >= 100", r.Metrics["naive.100"])
	}
}

func TestE9FalseSharing(t *testing.T) {
	r := E9(4)
	if r.Metrics["munin.msgs"] >= r.Metrics["ivy.msgs"] {
		t.Fatalf("munin %v msgs >= ivy %v msgs under false sharing",
			r.Metrics["munin.msgs"], r.Metrics["ivy.msgs"])
	}
}

func TestE10BatchedFlushIsO1(t *testing.T) {
	r := E10(2)
	// The acceptance shape: K dirty objects homed on one remote node
	// cost 2K messages serially and O(1) batched.
	for _, k := range []float64{4, 16, 64} {
		key := map[float64]string{4: "4", 16: "16", 64: "64"}[k]
		if got := r.Metrics["serial."+key]; got != 2*k {
			t.Errorf("serial.%s = %v msgs, want %v", key, got, 2*k)
		}
		if got := r.Metrics["batched."+key]; got != 2 {
			t.Errorf("batched.%s = %v msgs, want 2", key, got)
		}
	}
	// A batch of one must not cost more than the unbatched protocol.
	if r.Metrics["batched.1"] > r.Metrics["serial.1"] {
		t.Errorf("batch of one costs %v msgs vs serial %v",
			r.Metrics["batched.1"], r.Metrics["serial.1"])
	}
}

func TestE11WireWritesFlatOverTCP(t *testing.T) {
	r := E11(2)
	// The acceptance shape: over real sockets, a batched flush of K
	// dirty objects must stay O(1) wire writes per destination while
	// the serial path pays one write per message (2K).
	for _, k := range []string{"1", "4", "16", "64"} {
		if got := r.Metrics["batched.writes."+k]; got > 3 {
			t.Errorf("batched flush of %s objects took %v wire writes, want O(1)", k, got)
		}
	}
	if s, b := r.Metrics["serial.writes.64"], r.Metrics["batched.writes.64"]; s < 16*b {
		t.Errorf("serial writes (%v) not meaningfully above batched (%v) at K=64", s, b)
	}
}

func TestE12WireWritesFlatAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in short mode")
	}
	r := E12(2)
	// The acceptance shape: two separate OS processes over the topology
	// mesh, and the batched flush still costs O(1) writer-side wire
	// writes no matter how many objects are dirty.
	for _, k := range []string{"1", "16", "64"} {
		got, ok := r.Metrics["batched.writes."+k]
		if !ok {
			t.Fatalf("round k=%s produced no metrics: %v", k, r.Notes)
		}
		if got > 3 {
			t.Errorf("batched flush of %s objects took %v wire writes across processes, want O(1)", k, got)
		}
		// The done signal is a two-way Call again: its reply must ride
		// ahead of the home's goodbye, never lost to the latch.
		if acked := r.Metrics["done.acked."+k]; acked != 1 {
			t.Errorf("round k=%s: done reply lost to the shutdown (done.acked = %v, want 1)", k, acked)
		}
		if mis := r.Metrics["misrouted."+k]; mis != 0 {
			t.Errorf("round k=%s: %v misrouted frames on a correct topology, want 0", k, mis)
		}
	}
	// The serial path pays one write per diff round trip, so it must
	// grow with K while batched stays put.
	if s, b := r.Metrics["serial.writes.64"], r.Metrics["batched.writes.64"]; s < 8*b {
		t.Errorf("serial writer-side writes (%v) not meaningfully above batched (%v) at K=64", s, b)
	}
}

// TestE13KillAndRejoin is the failure-lifecycle acceptance shape:
// during the outage exactly the blocked call fails, typed and fast;
// after the re-dial the pair is healthy on a fresh epoch; and the
// flush costs O(1) wire writes before the kill and after the rejoin.
func TestE13KillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in short mode")
	}
	r := E13(2)
	if len(r.Metrics) == 0 {
		t.Fatalf("round produced no metrics: %v", r.Notes)
	}
	if got := r.Metrics["outage.typed"]; got != 1 {
		t.Errorf("outage errors were not typed *transport.ErrPeerDown (outage.typed = %v)", got)
	}
	if got := r.Metrics["outage.probe_ms"]; got > 1000 {
		t.Errorf("fresh call during the outage took %vms to fail, want < 1s", got)
	}
	if got := r.Metrics["outage.failed_peer"]; got != 1 {
		t.Errorf("call.failed_peer = %v, want exactly the one parked call", got)
	}
	if got := r.Metrics["rejoin.echo_ok"]; got != 1 {
		t.Errorf("home could not call into the rejoined writer (rejoin.echo_ok = %v)", got)
	}
	if got := r.Metrics["rejoin.reconnects"]; got < 1 {
		t.Errorf("rejoin.reconnects = %v, want >= 1", got)
	}
	if got := r.Metrics["rejoin.epoch"]; got < 2 {
		t.Errorf("rejoin.epoch = %v, want >= 2 (past the dead generation)", got)
	}
	for _, m := range []string{"flush.writes.before", "flush.writes.after"} {
		if got := r.Metrics[m]; got > 3 {
			t.Errorf("%s = %v wire writes for 64 objects, want O(1)", m, got)
		}
	}
}

// TestE14PublicAPIAcrossProcesses is the SPMD-runtime acceptance
// shape: a program written against the public DSM API produces
// byte-identical shared memory run in-process (Nodes: 2) and as two
// OS processes (Config.Topology), and its flush stays O(1) writer-side
// wire writes over the mesh.
func TestE14PublicAPIAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in short mode")
	}
	r := E14(2)
	for _, k := range []string{"1", "16", "64"} {
		match, ok := r.Metrics["digest.match."+k]
		if !ok {
			t.Fatalf("round k=%s produced no metrics: %v", k, r.Notes)
		}
		if match != 1 {
			t.Errorf("round k=%s: shared-memory digest differs between in-process and two-process runs", k)
		}
		if got := r.Metrics["batched.writes."+k]; got > 3 {
			t.Errorf("batched flush of %s objects took %v wire writes across processes, want O(1)", k, got)
		}
	}
	if s, b := r.Metrics["serial.writes.64"], r.Metrics["batched.writes.64"]; s < 8*b {
		t.Errorf("serial writer-side writes (%v) not meaningfully above batched (%v) at K=64", s, b)
	}
}

func TestE17RecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in short mode")
	}
	r := E17(3)
	if len(r.Metrics) == 0 {
		t.Fatalf("sweep produced no metrics: %v", r.Notes)
	}
	for _, cs := range e17Cases() {
		match, ok := r.Metrics["digest.match."+cs.name]
		if !ok {
			t.Errorf("crash point %s produced no digest (notes: %v)", cs.name, r.Notes)
			continue
		}
		if match != 1 {
			t.Errorf("crash point %s: post-rejoin memory not byte-identical to the uninterrupted run", cs.name)
		}
		if got := r.Metrics["reconnects."+cs.name]; got < 1 {
			t.Errorf("crash point %s: home saw no wire reconnect (%v)", cs.name, got)
		}
	}
	if got := r.Metrics["crash.points"]; got < 4 {
		t.Errorf("crash-point sweep covers %v named protocol steps, want >= 4", got)
	}
	if got := r.Metrics["rejoin.first_read_ms"]; got <= 0 {
		t.Errorf("rejoin.first_read_ms = %v, want > 0", got)
	}
	if got := r.Metrics["rejoin.reprime_msgs"]; got <= 0 {
		t.Errorf("rejoin.reprime_msgs = %v, want > 0", got)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	results := All(3)
	if len(results) != 19 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Table.NumRows() == 0 {
			t.Errorf("experiment %s produced no rows", r.ID)
		}
	}
}
