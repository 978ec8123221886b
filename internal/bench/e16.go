package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/protocol"
	"munin/internal/stats"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// E16 measures the claim behind the lease engine: writer-side messages
// per write to a read-mostly object must be FLAT in the number of
// reading members, where the directory machine's replicated mode is
// linear (every write relays a refresh to the whole copyset).
//
// Shape: K+1 OS processes over 127.0.0.1 — node 0 is the home AND the
// writer (so the fan-out, if any, is paid on the measured side), nodes
// 1..K are readers. Each reader primes a local copy, then parks in a
// blocking ready Call while the home performs W writes and measures its
// own message and clock deltas. The readers then synchronize (flush →
// lease lapse), re-read, and report the value they saw plus their
// lease/remote-read counters, so the run doubles as a correctness
// check: every reader must observe the final write under either engine.
//
// Baseline: ReadMostly + ForceReplicated on the directory engine
// (refresh mode) — the §3.3 write-update machine at its best. Lease
// runs the same object on the Tardis-style engine: a home write is a
// version bump, nothing moves until a reader synchronizes.

const (
	kindE16Hello  = msg.KindAppBase + 0x70 // reader joined (blocks until alloc)
	kindE16Ready  = msg.KindAppBase + 0x71 // reader primed (blocks until measured)
	kindE16Report = msg.KindAppBase + 0x72 // reader's post-sync verdict + counters
)

// e16Obj is the shared object's ID on every member.
const e16Obj memory.ObjectID = 1

// E16Metrics is what the home process measures and aggregates.
type E16Metrics struct {
	K            int     `json:"k"`
	Lease        bool    `json:"lease"`
	Writes       int     `json:"writes"`
	MsgsPerWrite float64 `json:"msgs_per_write"` // home-side messages per write
	NsPerWrite   float64 `json:"ns_per_write"`
	ExpiredReads int64   `json:"expired_reads"` // sum over readers
	RemoteReads  int64   `json:"remote_reads"`  // sum over readers
	Verified     bool    `json:"verified"`      // every reader saw the final write
}

// e16Topology wires K+1 processes into one mesh.
func e16Topology(addrs []string, self msg.NodeID) transport.Topology {
	peers := make(map[msg.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[msg.NodeID(i)] = a
	}
	return transport.Topology{Self: self, Peers: peers}
}

// e16Options is the object's configuration under test: the directory
// baseline replicates eagerly (refresh), the lease engine needs nothing
// but its kind.
func e16Options(lease bool) protocol.Options {
	opts := protocol.DefaultOptions()
	opts.Home = 0
	if lease {
		opts.Engine = protocol.EngineLease
	} else {
		opts.ForceReplicated = true
		opts.Update = protocol.Refresh
	}
	return opts
}

// RunE16Home runs the home+writer member: coordinate K readers through
// hello/ready/report, measure W writes in the quiet window, and print
// the aggregated metrics.
func RunE16Home(topo transport.Topology, readers, writes int, lease bool, ready *os.File) (m E16Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	clu, node, err := meshMember(topo)
	if err != nil {
		return m, err
	}
	defer clu.Close()

	m = E16Metrics{K: readers, Lease: lease, Writes: writes}
	q := duq.New()
	k := clu.Kernel(topo.Self)

	allocDone := make(chan struct{})
	measured := make(chan struct{})
	joinCh := make(chan struct{}, readers)
	readyCh := make(chan struct{}, readers)
	type verdict struct {
		value           uint64
		expired, remote int64
	}
	verdicts := make(chan verdict, readers)

	k.Handle(kindE16Hello, kindE16Hello, func(k *vkernel.Kernel, req *msg.Msg) {
		joinCh <- struct{}{}
		<-allocDone // the announce reaches every connected reader first
		k.Reply(req, nil)
	})
	k.Handle(kindE16Ready, kindE16Ready, func(k *vkernel.Kernel, req *msg.Msg) {
		readyCh <- struct{}{}
		<-measured
		k.Reply(req, msg.NewBuilder(8).U64(uint64(writes)).Bytes())
	})
	k.Handle(kindE16Report, kindE16Report, func(k *vkernel.Kernel, req *msg.Msg) {
		r := msg.NewReader(req.Payload)
		v := verdict{value: r.U64(), expired: int64(r.U64()), remote: int64(r.U64())}
		// Reply before the verdict is handed over: the home closes once
		// it has every verdict, and a reply queued after that would
		// fail the reader's report with its departure.
		k.Reply(req, nil)
		verdicts <- v
	})
	clu.Start()

	if ready != nil {
		fmt.Fprintln(ready, meshReadyLine)
	}

	waitN := func(ch <-chan struct{}, n int, what string) error {
		deadline := time.After(60 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-ch:
			case <-deadline:
				return fmt.Errorf("timed out waiting for %s (%d/%d)", what, i, n)
			}
		}
		return nil
	}

	// Every reader is connected once its hello arrived; the announce
	// then reaches all of them.
	if err := waitN(joinCh, readers, "reader hellos"); err != nil {
		return m, err
	}
	node.Alloc(protocol.Meta{
		ID: e16Obj, Name: "rm", Size: 64, Annot: protocol.ReadMostly,
		Opts: e16Options(lease),
	}, nil)
	close(allocDone)

	// Readers prime their copies, then park in the ready Call — the
	// measurement window below has no traffic but the writes' own.
	if err := waitN(readyCh, readers, "reader primes"); err != nil {
		return m, err
	}

	st := clu.Stats()
	beforeM := st.Messages()
	t0 := time.Now()
	for i := 1; i <= writes; i++ {
		node.Write(q, e16Obj, 0, u64be(uint64(i)))
	}
	elapsed := time.Since(t0)
	m.MsgsPerWrite = float64(st.Messages()-beforeM) / float64(writes)
	m.NsPerWrite = float64(elapsed.Nanoseconds()) / float64(writes)
	close(measured)

	m.Verified = true
	deadline := time.After(60 * time.Second)
	for i := 0; i < readers; i++ {
		select {
		case v := <-verdicts:
			if v.value != uint64(writes) {
				m.Verified = false
			}
			m.ExpiredReads += v.expired
			m.RemoteReads += v.remote
		case <-deadline:
			return m, fmt.Errorf("timed out waiting for reader reports (%d/%d)", i, readers)
		}
	}
	return m, nil
}

// RunE16Reader runs one reading member: prime, park, synchronize,
// verify, report.
func RunE16Reader(topo transport.Topology) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if topo.Self == 0 {
		return fmt.Errorf("reader must not be node 0 (node 0 is the home)")
	}
	clu, node, err := meshMember(topo)
	if err != nil {
		return err
	}
	defer clu.Close()
	clu.Start()
	k := clu.Kernel(topo.Self)
	q := duq.New()

	// Join; the reply means the allocation is installed here.
	if _, err := k.Call(0, kindE16Hello, nil); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	var buf [8]byte
	node.Read(q, e16Obj, 0, buf[:]) // prime the local copy

	// Park until the home measured its writes; the reply carries the
	// final expected value.
	reply, err := k.Call(0, kindE16Ready, nil)
	if err != nil {
		return fmt.Errorf("ready: %w", err)
	}
	want := msg.NewReader(reply.Payload).U64()

	// Synchronize: the flush is the lease-lapsing sync point; the next
	// read must observe the final write under EITHER engine.
	node.FlushQueue(q)
	node.Read(q, e16Obj, 0, buf[:])
	got := beU64(buf[:])

	// Report what we saw either way — the home cross-checks the value.
	b := msg.NewBuilder(24)
	b.U64(got).U64(uint64(node.C.Get("lease.expired_reads"))).U64(uint64(node.C.Get("rm.remote_reads")))
	if _, err := k.Call(0, kindE16Report, b.Bytes()); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if got != want {
		return fmt.Errorf("post-sync read %d, want %d", got, want)
	}
	return nil
}

func u64be(v uint64) []byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[7-i] = byte(v >> (8 * i))
	}
	return b[:]
}

func beU64(b []byte) uint64 {
	var v uint64
	for _, c := range b[:8] {
		v = v<<8 | uint64(c)
	}
	return v
}

// runE16Round spawns one home + K reader processes and returns the
// home's aggregated measurements.
func runE16Round(readers, writes int, lease bool) (E16Metrics, error) {
	var m E16Metrics
	addrs, err := netutil.ReserveAddrs(readers + 1)
	if err != nil {
		return m, err
	}
	home, homeOut, err := spawnMeshChild(meshChildConfig{
		Role: "e16-home", Topo: e16Topology(addrs, 0),
		Readers: readers, Writes: writes, Lease: lease,
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

	kids := make([]*exec.Cmd, 0, readers)
	defer func() {
		for _, c := range kids {
			c.Process.Kill()
			c.Wait()
		}
	}()
	for i := 1; i <= readers; i++ {
		rd, _, err := spawnMeshChild(meshChildConfig{
			Role: "e16-reader", Topo: e16Topology(addrs, msg.NodeID(i)),
		})
		if err != nil {
			return m, err
		}
		kids = append(kids, rd)
	}

	line, err := scanForPrefix(home, homeOut, meshMetricsPrefix, 90*time.Second)
	if err != nil {
		return m, fmt.Errorf("home metrics: %w", err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, meshMetricsPrefix)), &m); err != nil {
		return m, fmt.Errorf("home metrics: %w", err)
	}
	for i, c := range kids {
		if err := c.Wait(); err != nil {
			return m, fmt.Errorf("reader %d exit: %w", i+1, err)
		}
	}
	kids = nil
	if err := home.Wait(); err != nil {
		return m, fmt.Errorf("home exit: %w", err)
	}
	return m, nil
}

// runE16RoundRetry absorbs the reserved-port bind race by retrying.
func runE16RoundRetry(readers, writes int, lease bool) (E16Metrics, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m, err := runE16Round(readers, writes, lease)
		if err == nil {
			return m, nil
		}
		lastErr = err
	}
	return E16Metrics{}, lastErr
}

// E16 runs the fan-out experiment: K readers × 1 writer over the mesh,
// messages per write under the copyset baseline vs the lease engine.
// The nodes argument is ignored (the scenario sweeps its own K).
func E16(nodes int) *Result {
	tab := stats.NewTable("E16: write fan-out to K readers — directory copyset vs Tardis-style leases",
		"readers", "copyset msgs/write", "lease msgs/write", "copyset ns/write", "lease ns/write",
		"lease expired reads", "lease remote reads", "verified")
	res := &Result{ID: "E16", Table: tab, Metrics: map[string]float64{}}

	const writes = 200
	for _, k := range []int{1, 2, 4} {
		base, err := runE16RoundRetry(k, writes, false)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("round k=%d copyset failed: %v", k, err))
			continue
		}
		lease, err := runE16RoundRetry(k, writes, true)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("round k=%d lease failed: %v", k, err))
			continue
		}
		verified := 0.0
		if base.Verified && lease.Verified {
			verified = 1.0
		}
		tab.AddRow(k, base.MsgsPerWrite, lease.MsgsPerWrite,
			int64(base.NsPerWrite), int64(lease.NsPerWrite),
			lease.ExpiredReads, lease.RemoteReads, verified)
		key := fmt.Sprint(k)
		res.Metrics["copyset.msgs_per_write."+key] = base.MsgsPerWrite
		res.Metrics["lease.msgs_per_write."+key] = lease.MsgsPerWrite
		res.Metrics["copyset.write.ns."+key] = base.NsPerWrite
		res.Metrics["lease.write.ns."+key] = lease.NsPerWrite
		res.Metrics["lease.expired_reads."+key] = float64(lease.ExpiredReads)
		res.Metrics["lease.remote_reads."+key] = float64(lease.RemoteReads)
		res.Metrics["verified."+key] = verified
	}
	res.Notes = append(res.Notes,
		"node 0 is home AND writer, so any fan-out lands on the measured side; readers park in a blocking call during the window, leaving the wire quiet",
		"the directory baseline (ForceReplicated, refresh) relays every write to the whole copyset: messages per write grow linearly with readers",
		"the lease engine's write is a local version bump — messages per write stay flat (zero) at every K; readers pull the final version lazily at their next synchronization, and 'verified' confirms every reader saw it")
	return res
}
