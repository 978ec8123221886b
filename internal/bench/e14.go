package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"munin/internal/api"
	"munin/internal/core"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/protocol"
	"munin/internal/stats"
	"munin/internal/transport"
)

// E14 is the tentpole experiment of the SPMD runtime: a real public-API
// program (munin.Config → core.System: Alloc / NewBarrier / Run / Ctx,
// not a hand-driven protocol.Node) executed in two shapes —
//
//   - in-process, Config{Nodes: 2}: the simulated cluster E1..E11 use;
//   - two OS processes over 127.0.0.1, Config{Topology}: each process
//     one SPMD member running the identical program, deterministic
//     allocation, Run gating the cluster.
//
// and asserts the paper's transparency promise quantitatively: the
// shared-memory result is byte-identical across shapes (digest.match),
// and the delayed-update flush of K dirty objects still costs O(1)
// writer-side wire writes when the writer thread lives in its own
// process and reaches the home over the mesh (batched.writes flat in
// K; serial.writes — the same program flushing after every write —
// grows as ~2K, the same separation E11/E12 showed one layer down).
//
// E12 drove protocol.Node by hand across two processes; E14 retires
// that asterisk — the program below never names a node, a kernel, or a
// message.

// E14Metrics is what each member process measures and reports.
type E14Metrics struct {
	K      int    `json:"k"`
	Self   int    `json:"self"`
	Digest uint64 `json:"digest"` // thread 0's view of all shared bytes (self 0 only)
	Writes int64  `json:"writes"` // this process's wire writes during the flush (self 1 only)
	Msgs   int64  `json:"msgs"`   // this process's messages during the flush (self 1 only)
}

// e14Program is the program under test, identical in every shape: K
// write-many objects homed on node 0, a two-thread team (round-robin:
// thread 0 on node 0, thread 1 on node 1). Thread 1 primes, dirties
// all K and flushes once — or, when serial is set, after every write —
// measuring its process's wire writes around that; thread 0 then
// digests every shared byte. On a mesh member only the local thread
// runs; in-process both do.
func e14Program(sys *core.System, k int, serial bool) (E14Metrics, error) {
	const objSize = 64
	opts := protocol.DefaultOptions()
	opts.Home = 0
	regions := make([]api.RegionID, k)
	for i := range regions {
		regions[i] = sys.Alloc(fmt.Sprintf("wm%d", i), objSize, protocol.WriteMany, opts, nil)
	}
	bar := sys.NewBarrier()

	m := E14Metrics{K: k, Self: sys.Self()}
	err := sys.RunErr(2, func(c api.Ctx) {
		if c.ThreadID() == 1 {
			// Prime local copies so the flush cost is isolated (the
			// E10/E11/E12 discipline), then dirty every object.
			buf := make([]byte, 8)
			for _, r := range regions {
				c.Read(r, 0, buf)
			}
			st := sys.Stats()
			beforeW, beforeM := st.WireWrites(), st.Messages()
			for i, r := range regions {
				api.WriteU64(c, r, 0, uint64(i)*0x9e3779b97f4a7c15+1)
				if serial {
					c.Flush()
				}
			}
			c.Flush()
			m.Writes = st.WireWrites() - beforeW
			m.Msgs = st.Messages() - beforeM
		}
		c.Barrier(bar, 2)
		if c.ThreadID() == 0 {
			buf := make([]byte, objSize)
			sum := uint64(14695981039346656037)
			for _, r := range regions {
				c.Read(r, 0, buf)
				for _, b := range buf {
					sum ^= uint64(b)
					sum *= 1099511628211
				}
			}
			m.Digest = sum
		}
	})
	return m, err
}

// RunE14Member runs one SPMD member of the two-process E14 program.
// Member 0 prints READY to ready once its listener is bound (before
// Run blocks at the enter gate), so a parent can order the spawns.
func RunE14Member(topo transport.Topology, k int, serial bool, ready *os.File) (E14Metrics, error) {
	sys, err := core.New(core.Config{Topology: &topo})
	if err != nil {
		return E14Metrics{}, err
	}
	defer sys.Close()
	if topo.Self == 0 && ready != nil {
		fmt.Fprintln(ready, meshReadyLine)
	}
	return e14Program(sys, k, serial)
}

// runE14InProcess runs the identical program on the in-process
// simulated cluster and returns thread 0's digest.
func runE14InProcess(k int, serial bool) (E14Metrics, error) {
	sys, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		return E14Metrics{}, err
	}
	defer sys.Close()
	return e14Program(sys, k, serial)
}

// runE14Round spawns the two member processes and returns member 1's
// flush measurement and member 0's digest.
func runE14Round(k int, serial bool) (writer, home E14Metrics, err error) {
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		return writer, home, err
	}
	topo := func(self msg.NodeID) transport.Topology {
		return transport.Topology{
			Self:  self,
			Peers: map[msg.NodeID]string{0: addrs[0], 1: addrs[1]},
		}
	}
	m0, out0, err := spawnMeshChild(meshChildConfig{Role: "e14-member", Topo: topo(0), K: k, Serial: serial})
	if err != nil {
		return writer, home, err
	}
	defer func() {
		m0.Process.Kill()
		m0.Wait()
	}()
	if _, err := scanForPrefix(m0, out0, meshReadyLine, 20*time.Second); err != nil {
		return writer, home, fmt.Errorf("member 0: %w", err)
	}
	m1, out1, err := spawnMeshChild(meshChildConfig{Role: "e14-member", Topo: topo(1), K: k, Serial: serial})
	if err != nil {
		return writer, home, err
	}
	defer func() {
		m1.Process.Kill()
		m1.Wait()
	}()

	parse := func(line string) (E14Metrics, error) {
		var m E14Metrics
		err := json.Unmarshal([]byte(strings.TrimPrefix(line, meshMetricsPrefix)), &m)
		return m, err
	}
	line, err := scanForPrefix(m1, out1, meshMetricsPrefix, 30*time.Second)
	if err != nil {
		return writer, home, fmt.Errorf("member 1: %w", err)
	}
	if writer, err = parse(line); err != nil {
		return writer, home, fmt.Errorf("member 1 metrics: %w", err)
	}
	line, err = scanForPrefix(m0, out0, meshMetricsPrefix, 30*time.Second)
	if err != nil {
		return writer, home, fmt.Errorf("member 0: %w", err)
	}
	if home, err = parse(line); err != nil {
		return writer, home, fmt.Errorf("member 0 metrics: %w", err)
	}
	if err := m1.Wait(); err != nil {
		return writer, home, fmt.Errorf("member 1 exit: %w", err)
	}
	if err := m0.Wait(); err != nil {
		return writer, home, fmt.Errorf("member 0 exit: %w", err)
	}
	return writer, home, nil
}

// runE14RoundRetry absorbs the preassigned-port bind race by retrying.
func runE14RoundRetry(k int, serial bool) (writer, home E14Metrics, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		writer, home, err = runE14Round(k, serial)
		if err == nil {
			return writer, home, nil
		}
	}
	return writer, home, err
}

// E14 runs the SPMD-runtime experiment. The nodes argument is ignored:
// the scenario is fixed at two members, matching E12's shape.
func E14(nodes int) *Result {
	tab := stats.NewTable("E14: public-API program across two OS processes — same bytes, O(1) flush writes",
		"dirty objects", "digest match", "serial writes", "batched writes", "batched msgs")
	res := &Result{ID: "E14", Table: tab, Metrics: map[string]float64{}}

	for _, k := range []int{1, 16, 64} {
		want, err := runE14InProcess(k, false)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("k=%d in-process failed: %v", k, err))
			continue
		}
		serialW, serialH, err := runE14RoundRetry(k, true)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("k=%d serial failed: %v", k, err))
			continue
		}
		batchedW, batchedH, err := runE14RoundRetry(k, false)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("k=%d batched failed: %v", k, err))
			continue
		}
		match := 0.0
		if serialH.Digest == want.Digest && batchedH.Digest == want.Digest {
			match = 1.0
		}
		tab.AddRow(k, match, serialW.Writes, batchedW.Writes, batchedW.Msgs)
		key := fmt.Sprint(k)
		res.Metrics["digest.match."+key] = match
		res.Metrics["serial.writes."+key] = float64(serialW.Writes)
		res.Metrics["batched.writes."+key] = float64(batchedW.Writes)
		res.Metrics["batched.msgs."+key] = float64(batchedW.Msgs)
	}
	res.Notes = append(res.Notes,
		"the program is written against the public DSM API only (Alloc/NewBarrier/Run/Ctx) and runs unchanged as one process with Nodes: 2 and as two SPMD processes with Config.Topology — digest match = 1 means thread 0 read byte-identical shared memory in both shapes",
		"the writer member's flush stays O(1) wire writes in K over the mesh exactly as E11 (in-process TCP) and E12 (hand-driven mesh) showed; serial writes grow linearly in K",
		"allocation is coordinator-free: each member installs its own objects from program order, verified by the Run gate's setup digest")
	return res
}
