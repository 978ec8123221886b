package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/stats"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// E13 is the failure-lifecycle experiment: the E12 topology (home +
// writer as separate OS processes) with the writer process KILLED
// mid-computation (SIGKILL — wire death, no goodbye) and then REJOINED
// by a fresh process under the same node ID, with the reconnect policy
// enabled on both sides. It demonstrates the three properties the
// epoch-versioned reconnect promises:
//
//  1. During the outage, exactly the calls aimed at the dead peer fail
//     — the home's in-flight call fails with a peer-down error (transport.PeerDownOf)
//     (call.failed_peer = 1), and a fresh probe call fails fast (well
//     under a second) instead of hanging.
//  2. After the rejoin dial, the latch clears on a fresh connection
//     epoch: the restarted writer's calls succeed, and the home can
//     call back into it (wire.reconnects >= 1, epoch advanced past the
//     dead generation).
//  3. The flush stays O(1) writer-side wire writes — before the kill
//     and after the rejoin alike.

// E13 app-level kinds (the 0x70 range; mp.go uses KindAppBase+0..6 and
// E12's done signal is +0x7E).
const (
	kindE13Done   = msg.KindAppBase + 0x7A // writer→home Call: rejoin complete, probe me
	kindE13Phase1 = msg.KindAppBase + 0x7B // writer→home Call: workload done, park a call in me
	kindE13Echo   = msg.KindAppBase + 0x7C // home→writer Call: liveness probe (replied)
	kindE13Park   = msg.KindAppBase + 0x7D // home→writer Call: intentionally never replied
)

// Output vocabulary of the E13 child processes.
const (
	e13ParkedLine    = "E13PARKED" // writer phase 1: the parked call arrived; kill me now
	e13OutagePrefix  = "E13OUTAGE "
	e13RejoinPrefix  = "E13REJOIN "
	e13ReconnectWait = 50 * time.Millisecond // policy backoff both sides use
)

// e13Outage is the home's measurement of the outage window.
type e13Outage struct {
	// ParkedDown: the call that was blocked inside the writer when it
	// was killed failed with a peer-down error (transport.PeerDownOf).
	ParkedDown bool `json:"parked_down"`
	// ProbeDown: a fresh call issued during the outage failed typed.
	ProbeDown bool `json:"probe_down"`
	// ProbeMs: how long the fresh call took to fail (fail-fast bound).
	ProbeMs float64 `json:"probe_ms"`
	// FailedPeer: call.failed_peer — must be exactly the one parked
	// call, nothing else.
	FailedPeer int64 `json:"failed_peer"`
}

// e13Rejoin is the home's measurement after the writer rejoined.
type e13Rejoin struct {
	// EchoOK: the home's call INTO the restarted writer succeeded —
	// the latch is cleared in both directions.
	EchoOK bool `json:"echo_ok"`
	// Reconnects: wire.reconnects at the home.
	Reconnects int64 `json:"reconnects"`
	// Epoch: the pair's connection epoch after the rejoin (the dead
	// generation was 1, so this must be >= 2).
	Epoch uint64 `json:"epoch"`
}

// RunE13Home is the home side of the kill-and-rejoin scenario: serve
// the coherence protocol with the reconnect policy on, park a call
// inside the writer when asked, measure the outage when the writer is
// killed, and probe the rejoined incarnation before exiting.
func RunE13Home(topo transport.Topology, out *os.File) error {
	clu, node, err := meshMember(topo)
	if err != nil {
		return err
	}
	defer clu.Close()
	_ = node
	k := clu.Kernel(topo.Self)

	parkErr := make(chan error, 1)
	k.Handle(kindE13Phase1, kindE13Phase1, func(k *vkernel.Kernel, req *msg.Msg) {
		// Park a call inside the writer: it arrives (the writer prints
		// its marker, which is the parent's cue to kill) and is never
		// replied to — the blocked call the outage must fail.
		go func() {
			_, err := k.Call(1, kindE13Park, nil)
			parkErr <- err
		}()
		k.Reply(req, nil)
	})

	done := make(chan struct{})
	k.Handle(kindE13Done, kindE13Done, func(k *vkernel.Kernel, req *msg.Msg) {
		k.Reply(req, nil)
		// The rejoined writer is up and reached us; now call INTO it —
		// the proof that our side's latch cleared too.
		go func() {
			_, echoErr := k.Call(1, kindE13Echo, nil)
			rj := e13Rejoin{
				EchoOK:     echoErr == nil,
				Reconnects: clu.Stats().WireReconnects(),
			}
			if pe, ok := clu.Network().(transport.PeerEpochs); ok {
				rj.Epoch = pe.PeerEpoch(1)
			}
			enc, _ := json.Marshal(rj)
			fmt.Fprintf(out, "%s%s\n", e13RejoinPrefix, enc)
			close(done)
		}()
	})
	clu.Start()

	// The outage watcher: when the parked call fails (the writer was
	// killed), assert the failure vocabulary and the fail-fast bound.
	go func() {
		err := <-parkErr
		_, parkedDown := transport.PeerDownOf(err)
		o := e13Outage{ParkedDown: parkedDown}
		start := time.Now()
		_, probe := k.Call(1, kindE13Echo, nil)
		o.ProbeMs = float64(time.Since(start).Nanoseconds()) / 1e6
		_, o.ProbeDown = transport.PeerDownOf(probe)
		o.FailedPeer = k.C.Get("call.failed_peer")
		enc, _ := json.Marshal(o)
		fmt.Fprintf(out, "%s%s\n", e13OutagePrefix, enc)
	}()

	fmt.Fprintln(out, meshReadyLine)
	select {
	case <-done:
		return nil
	case <-time.After(120 * time.Second):
		return fmt.Errorf("timed out waiting for the rejoin to complete")
	}
}

// RunE13Writer is one incarnation of the writer. Phase 1 runs the
// flush workload, asks the home to park a call inside it, announces
// the parked call's arrival, and waits to be killed. Phase 2 (a fresh
// process, same node ID) reruns the flush workload over the rejoined
// pair, tells the home, waits to be probed, and leaves gracefully.
func RunE13Writer(topo transport.Topology, k, phase int, out *os.File) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if topo.Self == 0 {
		return fmt.Errorf("the writer must not be node 0 (node 0 is the home)")
	}
	clu, node, err := meshMember(topo)
	if err != nil {
		return err
	}
	defer clu.Close()
	kern := clu.Kernel(topo.Self)

	// Event wait replacing the old fixed 120s nap: if the harness (the
	// home's process) dies while we wait to be killed, the transport's
	// down/gone notifiers fire and we exit promptly instead of leaking
	// a sleeping process on slow runners.
	homeLost := make(chan error, 2)
	noteLost := func(err error) {
		select {
		case homeLost <- err:
		default:
		}
	}
	if pd, ok := clu.Network().(transport.PeerDownNotifier); ok {
		pd.OnPeerDown(func(peer msg.NodeID, _ uint64, err error) {
			if peer == 0 {
				noteLost(err)
			}
		})
	}
	clu.OnPeerGone(func(peer msg.NodeID, err error) {
		if peer == 0 {
			noteLost(err)
		}
	})

	echoServed := make(chan struct{})
	var echoOnce bool
	kern.Handle(kindE13Echo, kindE13Echo, func(k *vkernel.Kernel, req *msg.Msg) {
		k.Reply(req, nil)
		if !echoOnce {
			echoOnce = true
			close(echoServed)
		}
	})
	parked := make(chan struct{})
	kern.Handle(kindE13Park, kindE13Park, func(k *vkernel.Kernel, req *msg.Msg) {
		close(parked) // never replies; the reply this call wants dies with this process
	})
	clu.Start()

	// Phase 2 must not collide with phase 1's object registrations
	// still alive at the home.
	first := memory13(phase, k)
	m, err := flushWorkload(clu, node, first, k, false)
	if err != nil {
		return fmt.Errorf("phase %d flush: %w", phase, err)
	}
	enc, _ := json.Marshal(m)
	fmt.Fprintf(out, "%s%s\n", meshMetricsPrefix, enc)

	if phase == 1 {
		if _, err := kern.Call(0, kindE13Phase1, nil); err != nil {
			return fmt.Errorf("phase1 signal: %w", err)
		}
		select {
		case <-parked:
			fmt.Fprintln(out, e13ParkedLine) // the parent's cue to SIGKILL us
		case <-time.After(60 * time.Second):
			return fmt.Errorf("the home never parked a call in us")
		}
		// Wait for the kill. A healthy round SIGKILLs us here; the
		// event arm fires if the home died instead (broken harness),
		// and the deadline is only the last-resort leak guard.
		select {
		case lost := <-homeLost:
			return fmt.Errorf("phase 1 writer: home lost while awaiting the kill: %v", lost)
		case <-time.After(120 * time.Second):
			return fmt.Errorf("phase 1 writer was never killed")
		}
	}

	// Phase 2: the flush above already succeeded over the rejoined
	// pair; hand the home its probe window and leave cleanly.
	if _, err := kern.Call(0, kindE13Done, nil); err != nil {
		return fmt.Errorf("done signal: %w", err)
	}
	select {
	case <-echoServed:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("the home never probed the rejoined writer")
	}
	return nil
}

// memory13 returns the first object ID for an incarnation's workload.
func memory13(phase, k int) memory.ObjectID {
	return memory.ObjectID((phase-1)*k + 1)
}

// runE13Round orchestrates one kill-and-rejoin round: home up, writer
// phase 1 up, flush measured, call parked, SIGKILL, outage measured,
// writer phase 2 up, flush measured again, rejoin probed.
func runE13Round(k int) (flush1, flush2 MeshMetrics, outage e13Outage, rejoin e13Rejoin, err error) {
	fail := func(e error) (MeshMetrics, MeshMetrics, e13Outage, e13Rejoin, error) {
		return flush1, flush2, outage, rejoin, e
	}
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		return fail(err)
	}
	policy := transport.ReconnectPolicy{Enabled: true, Backoff: e13ReconnectWait}
	topoFor := func(self msg.NodeID) transport.Topology {
		return transport.Topology{
			Self:      self,
			Peers:     map[msg.NodeID]string{0: addrs[0], 1: addrs[1]},
			Reconnect: policy,
		}
	}

	home, homeOut, err := spawnMeshChild(meshChildConfig{Role: "e13-home", Topo: topoFor(0)})
	if err != nil {
		return fail(err)
	}
	defer func() {
		home.Process.Kill()
		home.Wait()
	}()
	if _, err := scanForPrefix(home, homeOut, meshReadyLine, 20*time.Second); err != nil {
		return fail(fmt.Errorf("home: %w", err))
	}

	wa, waOut, err := spawnMeshChild(meshChildConfig{Role: "e13-writer", Topo: topoFor(1), K: k, Phase: 1})
	if err != nil {
		return fail(err)
	}
	defer func() {
		wa.Process.Kill()
		wa.Wait()
	}()
	line, err := scanForPrefix(wa, waOut, meshMetricsPrefix, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("writer phase 1: %w", err))
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, meshMetricsPrefix)), &flush1); err != nil {
		return fail(fmt.Errorf("phase 1 metrics: %w", err))
	}
	if _, err := scanForPrefix(wa, waOut, e13ParkedLine, 20*time.Second); err != nil {
		return fail(fmt.Errorf("writer phase 1 park: %w", err))
	}
	// The kill: SIGKILL, no goodbye — the home must observe wire death.
	wa.Process.Kill()
	wa.Wait()

	line, err = scanForPrefix(home, homeOut, e13OutagePrefix, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("home outage: %w", err))
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, e13OutagePrefix)), &outage); err != nil {
		return fail(fmt.Errorf("outage metrics: %w", err))
	}

	wb, wbOut, err := spawnMeshChild(meshChildConfig{Role: "e13-writer", Topo: topoFor(1), K: k, Phase: 2})
	if err != nil {
		return fail(err)
	}
	defer func() {
		wb.Process.Kill()
		wb.Wait()
	}()
	line, err = scanForPrefix(wb, wbOut, meshMetricsPrefix, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("writer phase 2: %w", err))
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, meshMetricsPrefix)), &flush2); err != nil {
		return fail(fmt.Errorf("phase 2 metrics: %w", err))
	}
	line, err = scanForPrefix(home, homeOut, e13RejoinPrefix, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("home rejoin: %w", err))
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, e13RejoinPrefix)), &rejoin); err != nil {
		return fail(fmt.Errorf("rejoin metrics: %w", err))
	}
	if err := wb.Wait(); err != nil {
		return fail(fmt.Errorf("writer phase 2 exit: %w", err))
	}
	if err := home.Wait(); err != nil {
		return fail(fmt.Errorf("home exit: %w", err))
	}
	return flush1, flush2, outage, rejoin, nil
}

// runE13RoundRetry absorbs the preassigned-port bind race by retrying.
func runE13RoundRetry(k int) (MeshMetrics, MeshMetrics, e13Outage, e13Rejoin, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f1, f2, o, r, err := runE13Round(k)
		if err == nil {
			return f1, f2, o, r, nil
		}
		lastErr = err
	}
	return MeshMetrics{}, MeshMetrics{}, e13Outage{}, e13Rejoin{}, lastErr
}

// E13 runs the kill-and-rejoin experiment. The nodes argument is
// ignored: the scenario is fixed at two processes (home + writer).
func E13(nodes int) *Result {
	tab := stats.NewTable("E13: kill-and-rejoin writer — outage fail-fast, epoch-versioned reconnect, flush still O(1)",
		"dirty objects", "flush writes (before kill)", "flush writes (after rejoin)",
		"parked call peer-down", "probe fail ms", "call.failed_peer", "reconnects", "epoch")
	res := &Result{ID: "E13", Table: tab, Metrics: map[string]float64{}}

	const k = 64
	f1, f2, outage, rejoin, err := runE13RoundRetry(k)
	if err != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("round failed: %v", err))
		return res
	}
	tab.AddRow(k, f1.Writes, f2.Writes,
		outage.ParkedDown && outage.ProbeDown, fmt.Sprintf("%.1f", outage.ProbeMs),
		outage.FailedPeer, rejoin.Reconnects, rejoin.Epoch)
	res.Metrics["flush.writes.before"] = float64(f1.Writes)
	res.Metrics["flush.writes.after"] = float64(f2.Writes)
	res.Metrics["outage.typed"] = b2f(outage.ParkedDown && outage.ProbeDown)
	res.Metrics["outage.probe_ms"] = outage.ProbeMs
	res.Metrics["outage.failed_peer"] = float64(outage.FailedPeer)
	res.Metrics["rejoin.echo_ok"] = b2f(rejoin.EchoOK)
	res.Metrics["rejoin.reconnects"] = float64(rejoin.Reconnects)
	res.Metrics["rejoin.epoch"] = float64(rejoin.Epoch)
	res.Notes = append(res.Notes,
		"the writer process is SIGKILLed with a call parked inside it: the home fails exactly that call with a peer-down error (call.failed_peer = 1), fresh calls fail in milliseconds instead of hanging, and a restarted writer under the same node ID rejoins on a fresh connection epoch — the latch clears on both sides, nothing is replayed, and the batched flush still costs O(1) wire writes")
	return res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
