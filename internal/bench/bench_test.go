package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"munin/internal/failpoint"
)

// TestMain lets E12 re-execute this test binary as its home/writer
// child processes (see MeshChildMain).
func TestMain(m *testing.M) {
	if MeshChildMain() {
		return
	}
	os.Exit(m.Run())
}

// The experiment assertions below are the reproduction criteria. Two
// kinds: the paper's shapes — who wins, by roughly what factor, where
// crossovers fall — and, for every figure the program determines, the
// exact value. Messages and bytes moved are the machine-independent
// cost the paper argues in, so where a count does not depend on the
// schedule it is held with ==, not within a tolerance: a change that
// moves one must say so here. The figures left to a shape test are the
// ones that do not repeat (wall-clock readings, the Ivy baselines, the
// dynamic-work-queue apps); ROADMAP.md's State section names them.

// pinned asserts the figures of r that do not depend on the schedule:
// each repeated bit for bit over 20 runs at each of GOMAXPROCS 1, 2
// and 8 and 5 runs under the race detector, at the node count the
// calling test uses.
func pinned(t *testing.T, r *Result, want map[string]float64) {
	t.Helper()
	for k, w := range want {
		if got, ok := r.Metrics[k]; !ok || got != w {
			t.Errorf("%s: %s = %v (present: %v), want exactly %v", r.ID, k, got, ok, w)
		}
	}
}

// key names one figure of a family indexed by a swept parameter.
func key(family string, k int) string { return fmt.Sprintf("%s.%d", family, k) }

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
	pinned(t, r, map[string]float64{"worst.generalrw.pct": 0})
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
	// The two programs whose sharing is fixed by their text, and the
	// hand-coded message-passing baselines (gauss and fft differ by a
	// few messages with the order threads reach a barrier; qsort, tsp
	// and mp's tsp hand out work from a shared queue). Life's boundary
	// rows register their producer and consumers at the rows' homes (42
	// messages; a home that produces a row registers itself without
	// one). Every thread is alone on its node, so every row push rides
	// its producer's barrier arrival: the barrier's home applies the
	// pushes aimed at itself and writes the others into the consumers'
	// releases. Each of the 6 barriers is then 3 arrivals and 3
	// releases, 36 messages, and the 95 messages of acknowledged push
	// multicasts (the 39 pushes that had members, 1 + k messages for k
	// members) are gone: 173 → 78. The bytes move from the pushes'
	// multicasts and acks (3 922 B) into the arrivals' carried parts
	// (1 520 B) and the releases' bodies (1 624 B): 6 916 → 6 138.
	pinned(t, r, map[string]float64{
		"munin.matmul.msgs": 24, "munin.matmul.bytes": 45708,
		"munin.life.msgs": 78, "munin.life.bytes": 6138,
		"mp.matmul.msgs": 6, "mp.matmul.bytes": 20946,
		"mp.gauss.msgs": 29, "mp.gauss.bytes": 12254,
		"mp.fft.msgs": 11, "mp.fft.bytes": 4464,
		"mp.qsort.msgs": 6, "mp.qsort.bytes": 6318,
		"mp.life.msgs": 39, "mp.life.bytes": 2130,
	})
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
	// Remote load/store pays a round trip per access (10 writes, 3
	// remote readers); a replicated copy is fetched once and refreshed
	// by each write, however often it is read in between.
	pinned(t, r, map[string]float64{
		"remote.1": 20, "remote.2": 140, "remote.8": 500, "remote.32": 1940,
		"repl.1": 20, "repl.2": 53, "repl.8": 53, "repl.32": 53,
	})
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
	// 33 barriers, each 6 messages: 3 arrivals and 3 releases, the
	// home's own participant sending none (66 more in both columns while
	// it called itself).
	pinned(t, r, map[string]float64{
		"inv.0": 208, "inv.1": 270, "inv.3": 364,
		"ref.0": 268, "ref.1": 268, "ref.3": 268,
		"crossover": 1,
	})
}

func TestE5MigratoryCheaper(t *testing.T) {
	r := E5(3)
	if r.Metrics["migratory.perCS"] >= r.Metrics["conventional.perCS"] {
		t.Fatalf("migratory %v msgs/CS >= conventional %v msgs/CS",
			r.Metrics["migratory.perCS"], r.Metrics["conventional.perCS"])
	}
	// 30 sections in a ring over 3 nodes: the lock transfer is 3
	// messages a section — the request, the home's forward to the
	// previous holder, that holder's grant — (2 for the first, which
	// finds the lock free): 2 + 29 x 3 = 89, and the data rides inside
	// the grant; a conventional object adds its own
	// ownership transfer on top. A section reads, then writes: a read
	// fault (request, forward, data from the owner) and an upgrade
	// (request, forward to the old owner, its grant without data) are 6
	// messages when the previous section ran on a third node; when it ran
	// on the object's home (node 1) the home answers the read itself and
	// grants the upgrade itself, 2 + 2. Section 0 finds the home owning,
	// 4, then 6, 4 and nine rings of 6 + 6 + 4: 158 (177 while the home
	// retired the old owner with an invalidation and its ack).
	pinned(t, r, map[string]float64{
		"migratory.perCS":    89.0 / 30,
		"conventional.perCS": (89.0 + 158.0) / 30,
	})
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
	// Under invalidation each of the two consumers faults once an epoch,
	// 12 epochs: the owner answers a read fault and keeps the object, so no
	// consumer is ever handed a copy it did not ask for.
	pinned(t, r, map[string]float64{"pc.stalls": 1, "conventional.stalls": 24})
}

func TestE7CombiningFlattens(t *testing.T) {
	r := E7(2)
	if r.Metrics["flush.256"] > 2*r.Metrics["flush.1"] {
		t.Fatalf("flush messages grew with writes per interval: 1→%v, 256→%v",
			r.Metrics["flush.1"], r.Metrics["flush.256"])
	}
	// One diff and one ack, however many writes the interval held.
	for _, wpi := range []int{1, 8, 64, 256} {
		pinned(t, r, map[string]float64{key("flush", wpi): 2})
	}
}

func TestE8ProxiesFree(t *testing.T) {
	r := E8(2)
	for _, k := range []int{1, 10, 100} {
		pinned(t, r, map[string]float64{key("proxy", k): 0})
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
	// 20 rounds over 4 nodes, one counter a thread, homed on the next
	// node: 8 write faults, then a diff and its ack per thread in each of
	// the 19 rounds whose write changes a byte, and 6 barrier messages a
	// round (node 1's arrival at its own barrier sends none). Thread 0's
	// counter is homed at the barrier's home, node 1, so its diff rides
	// its arrival: 8 + 19*6 + 20*6 = 242 (282 while node 1 called itself
	// to arrive, 320 while every diff was flushed before the arrival).
	pinned(t, r, map[string]float64{"munin.msgs": 242})
}

func TestE10BatchedFlushIsO1(t *testing.T) {
	r := E10(2)
	// The acceptance shape: K dirty objects homed on one remote node
	// cost 2K messages serially and O(1) batched.
	// (A batch of one costs what the unbatched protocol did: 2.)
	for _, k := range []int{1, 4, 16, 64} {
		pinned(t, r, map[string]float64{
			key("serial", k):  float64(2 * k),
			key("batched", k): 2,
		})
	}
}

func TestE11WireWritesFlatOverTCP(t *testing.T) {
	r := E11(2)
	// The acceptance shape: over real sockets, a batched flush of K
	// dirty objects must stay O(1) wire writes per destination while
	// the serial path pays one write per message (2K).
	// Exactly: the batch is one write and its ack another. (A wire
	// write is charged when it is issued, so the writer, ack in hand,
	// reads a count that already holds both.)
	for _, k := range []int{1, 4, 16, 64} {
		pinned(t, r, map[string]float64{
			key("serial.writes", k):  float64(2 * k),
			key("batched.writes", k): 2,
			key("batched.msgs", k):   2,
		})
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
	// Exactly one write (the acks are the home process's writes); a
	// writer that flushes after every write pays one per object.
	for _, k := range []int{1, 16, 64} {
		if _, ok := r.Metrics[key("batched.writes", k)]; !ok {
			t.Fatalf("round k=%d produced no metrics: %v", k, r.Notes)
		}
		pinned(t, r, map[string]float64{
			key("batched.writes", k): 1,
			key("batched.msgs", k):   1,
			key("serial.writes", k):  float64(k),
			// The done signal is a two-way Call again: its reply must
			// ride ahead of the home's goodbye, never lost to the latch.
			key("done.acked", k): 1,
			key("misrouted", k):  0, // a correct topology misroutes nothing
			key("stalls", k):     0,
		})
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
	if got := r.Metrics["outage.probe_ms"]; got > 1000 {
		t.Errorf("fresh call during the outage took %vms to fail, want < 1s", got)
	}
	pinned(t, r, map[string]float64{
		"outage.typed":       1, // *transport.ErrPeerDown, not a raw error
		"outage.failed_peer": 1, // exactly the one parked call
		"rejoin.echo_ok":     1, // the home can call into the rejoined writer
		"rejoin.reconnects":  1,
		"rejoin.epoch":       2, // past the dead generation
		// 64 objects, one write, before the kill and after the rejoin.
		"flush.writes.before": 1,
		"flush.writes.after":  1,
	})
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
	for _, k := range []int{1, 16, 64} {
		if _, ok := r.Metrics[key("digest.match", k)]; !ok {
			t.Fatalf("round k=%d produced no metrics: %v", k, r.Notes)
		}
		pinned(t, r, map[string]float64{
			// Same bytes in-process and as two processes.
			key("digest.match", k):   1,
			key("batched.writes", k): 1,
			key("batched.msgs", k):   1,
			key("serial.writes", k):  float64(k),
		})
	}
}

// TestE16LeaseFanOutFlat is the lease engine's load-bearing claim on
// real processes: what a write to a read-mostly object costs its writer
// stays flat (nothing) as readers are added, where the directory's
// copyset costs one message a reader; and every reader sees the final
// write after its next synchronization under both engines.
func TestE16LeaseFanOutFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in short mode")
	}
	r := E16(2)
	for _, k := range []int{1, 2, 4} {
		if _, ok := r.Metrics[key("verified", k)]; !ok {
			t.Fatalf("round k=%d produced no metrics: %v", k, r.Notes)
		}
		pinned(t, r, map[string]float64{
			key("lease.msgs_per_write", k):   0,
			key("copyset.msgs_per_write", k): float64(k),
			key("verified", k):               1,
			// A reader's lease lapses once, at its sync point, and it
			// reads across the wire twice: the prime and the re-read.
			key("lease.expired_reads", k): float64(k),
			key("lease.remote_reads", k):  float64(2 * k),
		})
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
		// One victim, one rejoin: the home sees exactly one reconnect.
		pinned(t, r, map[string]float64{"reconnects." + cs.name: 1})
	}
	if got := r.Metrics["rejoin.first_read_ms"]; got <= 0 {
		t.Errorf("rejoin.first_read_ms = %v, want > 0", got)
	}
	pinned(t, r, map[string]float64{
		// Every named protocol step the failpoint package registers.
		"crash.points": float64(len(failpoint.Names())),
		// Rejoin is lazy: one announce a survivor, one gate resync, and
		// the replicas the program touches re-primed by ordinary faults.
		// The victim's second words ride its barrier arrival, so they
		// add no send of their own.
		"rejoin.reprime_msgs": 32,
	})
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	results := All(3)
	if len(results) != 18 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Table.NumRows() == 0 {
			t.Errorf("experiment %s produced no rows", r.ID)
		}
	}
}
