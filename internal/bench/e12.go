package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/failpoint"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/protocol"
	"munin/internal/stats"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// E12 is the first experiment whose nodes are separate OS processes:
// the E11 flush workload (K dirty write-many objects homed on a remote
// node, flushed at one synchronization point) with the home and the
// writer running as two processes connected by a transport.Topology
// over 127.0.0.1 ports. E11 already showed the writer pipeline keeping
// wire writes per sync flat in K inside one process; E12 shows the
// same pipeline doing it across a real peer mesh — lazy dial, connect
// handshake, and all — and makes writer-side backpressure
// (wire.queue_stall) visible in the output.
//
// Each round re-executes this binary twice (home, then writer) with a
// MUNIN_MESH_CHILD environment config; see MeshChildMain.

// kindMeshDone is the app-level message the writer sends the home so
// it knows the round is over and can exit.
const kindMeshDone = msg.KindAppBase + 0x7E

// meshChildConfig is the JSON carried in MUNIN_MESH_CHILD.
type meshChildConfig struct {
	Role     string             `json:"role"` // "home"/"writer" (E12), "e13-home"/"e13-writer" (E13), "e14-member" (E14), "e16-home"/"e16-reader" (E16), "e17-member" (E17)
	Topo     transport.Topology `json:"topo"`
	K        int                `json:"k"`
	Serial   bool               `json:"serial"`              // writer, e14-member: flush after every write (the serial baseline)
	Phase    int                `json:"phase,omitempty"`     // e13-writer: 1 = doomed incarnation, 2 = rejoin
	Readers  int                `json:"readers,omitempty"`   // e16-home: reading members to coordinate
	Writes   int                `json:"writes,omitempty"`    // e16-home: measured writes
	Lease    bool               `json:"lease,omitempty"`     // e16: lease engine instead of the copyset baseline
	Victim   int                `json:"victim,omitempty"`    // e17: node index that runs the crash-prone role
	Crash    string             `json:"crash,omitempty"`     // e17: failpoint spec "name[:skip]" armed at startup
	Recover  bool               `json:"recover,omitempty"`   // e17: rejoining incarnation — run the recovery handshake
	SkipOut  bool               `json:"skip_body,omitempty"` // e17: rejoin after the barrier passed — skip the body, verify only
	HoldExit bool               `json:"hold_exit,omitempty"` // e17: park this member's thread at end of body until a stdin line arrives
	HoldBar  bool               `json:"hold_bar,omitempty"`  // e17: park this member's thread before its barrier arrival until a stdin line arrives
}

// MeshMetrics is what the writer process measures around its flush.
type MeshMetrics struct {
	K         int   `json:"k"`
	Writes    int64 `json:"writes"`     // writer-side wire writes during the flush
	Msgs      int64 `json:"msgs"`       // writer-side messages during the flush
	Stalls    int64 `json:"stalls"`     // send-queue backpressure stalls (whole run)
	StallNs   int64 `json:"stall_ns"`   // total ns spent in those stalls
	Dials     int64 `json:"dials"`      // connections dialed (whole run)
	Misrouted int64 `json:"misrouted"`  // inbound frames addressed to some other node
	DoneAcked bool  `json:"done_acked"` // the done Call's reply survived the home's shutdown
}

// meshReadyLine is printed by the home process once its listener is
// bound and handlers are registered.
const meshReadyLine = "READY"

// meshMetricsPrefix precedes the writer's JSON metrics line.
const meshMetricsPrefix = "METRICS "

// MeshChildMain is the re-exec hook for E12's child processes: if the
// MUNIN_MESH_CHILD environment variable is set, the process runs the
// configured mesh role and returns true (the caller should exit).
// main() of munin-bench and TestMain of this package both call it
// first, so E12 can spawn children whether it runs under `go test` or
// the installed binary.
func MeshChildMain() bool {
	raw := os.Getenv("MUNIN_MESH_CHILD")
	if raw == "" {
		return false
	}
	var cfg meshChildConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mesh child: bad config: %v\n", err)
		os.Exit(2)
	}
	// Arm the crash failpoint before the role runs so every protocol
	// step is covered, config first, MUNIN_FAILPOINT as the manual
	// escape hatch.
	if cfg.Crash != "" {
		if err := failpoint.ArmCrash(cfg.Crash); err != nil {
			fmt.Fprintf(os.Stderr, "mesh child: bad crash spec: %v\n", err)
			os.Exit(2)
		}
	} else if _, err := failpoint.ArmCrashFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "mesh child: %v\n", err)
		os.Exit(2)
	}
	var err error
	switch cfg.Role {
	case "home":
		err = RunMeshHome(cfg.Topo, os.Stdout)
	case "writer":
		var m MeshMetrics
		m, err = RunMeshWriter(cfg.Topo, cfg.K, cfg.Serial)
		if err == nil {
			enc, _ := json.Marshal(m)
			fmt.Printf("%s%s\n", meshMetricsPrefix, enc)
		}
	case "e13-home":
		err = RunE13Home(cfg.Topo, os.Stdout)
	case "e13-writer":
		err = RunE13Writer(cfg.Topo, cfg.K, cfg.Phase, os.Stdout)
	case "e14-member":
		var m E14Metrics
		m, err = RunE14Member(cfg.Topo, cfg.K, cfg.Serial, os.Stdout)
		if err == nil {
			enc, _ := json.Marshal(m)
			fmt.Printf("%s%s\n", meshMetricsPrefix, enc)
		}
	case "e16-home":
		var m E16Metrics
		m, err = RunE16Home(cfg.Topo, cfg.Readers, cfg.Writes, cfg.Lease, os.Stdout)
		if err == nil {
			enc, _ := json.Marshal(m)
			fmt.Printf("%s%s\n", meshMetricsPrefix, enc)
		}
	case "e16-reader":
		err = RunE16Reader(cfg.Topo)
	case "e17-member":
		var m E17Metrics
		m, err = RunE17Member(cfg, os.Stdout)
		if err == nil {
			enc, _ := json.Marshal(m)
			fmt.Printf("%s%s\n", meshMetricsPrefix, enc)
		}
	default:
		err = fmt.Errorf("unknown mesh role %q", cfg.Role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mesh child (%s): %v\n", cfg.Role, err)
		os.Exit(1)
	}
	return true
}

// meshMember assembles one process's slice of the mesh cluster: the
// self kernel plus a Munin protocol server on top of it. The kernel is
// not dispatching yet — the caller registers its own kinds, then calls
// clu.Start (see cluster.New).
func meshMember(topo transport.Topology) (*cluster.Cluster, *protocol.Node, error) {
	clu, err := cluster.New(cluster.Config{Topology: &topo})
	if err != nil {
		return nil, nil, err
	}
	k := clu.Kernel(topo.Self)
	return clu, protocol.NewNode(k, dlock.NewService(k)), nil
}

// RunMeshHome runs the home side of the two-process flush scenario: it
// binds the topology's self address, serves the coherence protocol
// (allocation installs, read faults, diff merges), and exits when the
// writer signals done. ready receives one "READY" line once the
// listener is up, which is what lets a parent orchestrate startup.
func RunMeshHome(topo transport.Topology, ready *os.File) error {
	clu, _, err := meshMember(topo)
	if err != nil {
		return err
	}
	defer clu.Close()
	done := make(chan struct{})
	clu.Kernel(topo.Self).Handle(kindMeshDone, kindMeshDone,
		func(k *vkernel.Kernel, req *msg.Msg) {
			// Reply BEFORE signaling: the reply is then queued ahead of
			// the goodbye this process's Close emits, and the mesh's
			// goodbye drain guarantees the writer receives it — the
			// reply-vs-EOF race the PR-3 lifecycle had is closed.
			k.Reply(req, nil)
			close(done)
		})
	clu.Start()
	if ready != nil {
		fmt.Fprintln(ready, meshReadyLine)
	}
	select {
	case <-done:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("timed out waiting for the writer's done signal")
	}
}

// RunMeshWriter runs the writer side: allocate K write-many objects
// homed on node 0 (announced to the home over the mesh), prime local
// copies, dirty all K, flush once — or, when serial is set, after every
// write — and measure this process's wire writes for the flush. The
// done signal is sent before shutdown so the home exits cleanly.
//
// The protocol layer reports coherence failures as panics (an
// in-process cluster cannot lose a peer); out here a dead home is an
// operational condition, so panics from the allocate/prime path are
// converted into ordinary errors.
func RunMeshWriter(topo transport.Topology, k int, serial bool) (m MeshMetrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if topo.Self == 0 {
		return m, fmt.Errorf("the writer must not be node 0 (node 0 is the home)")
	}
	clu, node, err := meshMember(topo)
	if err != nil {
		return m, err
	}
	defer clu.Close()
	clu.Start()

	m, err = flushWorkload(clu, node, 1, k, serial)
	if err != nil {
		return m, err
	}
	// Two-way: the home replies and then shuts down, with its goodbye
	// queued BEHIND the reply — the goodbye drain guarantees the reply
	// is delivered before the departure marker, so this Call can never
	// lose the reply-vs-EOF race that forced PR 3 to make the done
	// signal one-way.
	if _, err := clu.Kernel(topo.Self).Call(0, kindMeshDone, nil); err != nil {
		return m, fmt.Errorf("done reply lost to the shutdown: %w", err)
	}
	m.DoneAcked = true
	return m, nil
}

// flushWorkload is the measured core shared by E12 and E13 writers:
// allocate k write-many objects (IDs first..first+k-1) homed on node
// 0, prime local copies, dirty all k, flush once, and measure this
// process's wire writes for the flush. The serial baseline is the same
// program flushing after every write.
func flushWorkload(clu *cluster.Cluster, node *protocol.Node, first memory.ObjectID, k int, serial bool) (MeshMetrics, error) {
	q := duq.New()
	opts := protocol.DefaultOptions()
	opts.Home = 0
	regions := make([]memory.ObjectID, k)
	for i := range regions {
		regions[i] = first + memory.ObjectID(i)
		meta := protocol.Meta{
			ID: regions[i], Name: fmt.Sprintf("wm%d", regions[i]), Size: 64,
			Annot: protocol.WriteMany, Opts: opts,
		}
		node.Alloc(meta, nil)
	}
	// Prime the copies so the flush cost is isolated (same discipline
	// as E10/E11).
	buf := make([]byte, 8)
	for _, r := range regions {
		node.Read(q, r, 0, buf)
	}
	st := clu.Stats()
	beforeW, beforeM := st.WireWrites(), st.Messages()
	for _, r := range regions {
		node.Write(q, r, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if serial {
			if err := node.TryFlushQueue(q); err != nil {
				return MeshMetrics{}, fmt.Errorf("flush: %w", err)
			}
		}
	}
	if err := node.TryFlushQueue(q); err != nil {
		return MeshMetrics{}, fmt.Errorf("flush: %w", err)
	}
	return MeshMetrics{
		K:         k,
		Writes:    st.WireWrites() - beforeW,
		Msgs:      st.Messages() - beforeM,
		Stalls:    st.WireQueueStalls(),
		StallNs:   st.WireQueueStallNs(),
		Dials:     st.WireDials(),
		Misrouted: st.WireMisrouted(),
	}, nil
}

// e12Topology builds the two-process topology over preassigned
// addresses (netutil.ReserveAddrs; runE12Round retries the round if a
// child loses the rebind race).
func e12Topology(addrs []string, self msg.NodeID) transport.Topology {
	return transport.Topology{
		Self:  self,
		Peers: map[msg.NodeID]string{0: addrs[0], 1: addrs[1]},
	}
}

// spawnMeshChild re-executes this binary with the given role config.
func spawnMeshChild(cfg meshChildConfig) (*exec.Cmd, *bufio.Scanner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	enc, err := json.Marshal(cfg)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "MUNIN_MESH_CHILD="+string(enc))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, bufio.NewScanner(out), nil
}

// scanForPrefix reads lines until one starts with prefix, with a
// deadline enforced by killing the process (which unblocks the scan).
func scanForPrefix(cmd *exec.Cmd, sc *bufio.Scanner, prefix string, timeout time.Duration) (string, error) {
	timer := time.AfterFunc(timeout, func() { cmd.Process.Kill() })
	defer timer.Stop()
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			return line, nil
		}
	}
	return "", fmt.Errorf("child exited without printing %q (or timed out)", prefix)
}

// runE12Round spawns one home + one writer process and returns the
// writer's measurements.
func runE12Round(k int, serial bool) (MeshMetrics, error) {
	var m MeshMetrics
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		return m, err
	}
	home, homeOut, err := spawnMeshChild(meshChildConfig{
		Role: "home", Topo: e12Topology(addrs, 0),
	})
	if err != nil {
		return m, err
	}
	defer func() {
		home.Process.Kill()
		home.Wait()
	}()
	if _, err := scanForPrefix(home, homeOut, meshReadyLine, 20*time.Second); err != nil {
		return m, fmt.Errorf("home: %w", err)
	}

	writer, writerOut, err := spawnMeshChild(meshChildConfig{
		Role: "writer", Topo: e12Topology(addrs, 1), K: k, Serial: serial,
	})
	if err != nil {
		return m, err
	}
	defer func() {
		writer.Process.Kill()
		writer.Wait()
	}()
	line, err := scanForPrefix(writer, writerOut, meshMetricsPrefix, 30*time.Second)
	if err != nil {
		return m, fmt.Errorf("writer: %w", err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, meshMetricsPrefix)), &m); err != nil {
		return m, fmt.Errorf("writer metrics: %w", err)
	}
	if err := writer.Wait(); err != nil {
		return m, fmt.Errorf("writer exit: %w", err)
	}
	if err := home.Wait(); err != nil {
		return m, fmt.Errorf("home exit: %w", err)
	}
	return m, nil
}

// runE12RoundRetry absorbs the freePorts bind race by retrying.
func runE12RoundRetry(k int, serial bool) (MeshMetrics, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m, err := runE12Round(k, serial)
		if err == nil {
			return m, nil
		}
		lastErr = err
	}
	return MeshMetrics{}, lastErr
}

// E12 runs the two-process flush experiment. The nodes argument is
// ignored: the scenario is fixed at two processes (home + writer),
// matching E11's two-node shape.
func E12(nodes int) *Result {
	tab := stats.NewTable("E12: flush across two OS processes — writer-side wire writes per synchronization",
		"dirty objects", "serial writes", "batched writes", "batched msgs", "dials", "queue stalls", "misrouted", "done acked")
	res := &Result{ID: "E12", Table: tab, Metrics: map[string]float64{}}

	for _, k := range []int{1, 16, 64} {
		serial, err := runE12RoundRetry(k, true)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("round k=%d serial failed: %v", k, err))
			continue
		}
		batched, err := runE12RoundRetry(k, false)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("round k=%d batched failed: %v", k, err))
			continue
		}
		acked := 0.0
		if serial.DoneAcked && batched.DoneAcked {
			acked = 1.0
		}
		tab.AddRow(k, serial.Writes, batched.Writes, batched.Msgs, batched.Dials, batched.Stalls,
			batched.Misrouted, acked)
		key := fmt.Sprint(k)
		res.Metrics["serial.writes."+key] = float64(serial.Writes)
		res.Metrics["batched.writes."+key] = float64(batched.Writes)
		res.Metrics["batched.msgs."+key] = float64(batched.Msgs)
		res.Metrics["stalls."+key] = float64(batched.Stalls)
		res.Metrics["misrouted."+key] = float64(batched.Misrouted)
		res.Metrics["done.acked."+key] = acked
	}
	res.Notes = append(res.Notes,
		"two separate OS processes connected by the topology map over 127.0.0.1: the writer pipeline keeps the flush at O(1) wire writes per destination exactly as in-process E11, now across a dialed peer mesh",
		"the done signal is a two-way Call whose reply rides ahead of the home's goodbye: done acked = 1 means no in-flight reply was lost to the shutdown (the PR-3 one-way workaround is gone)")
	return res
}
