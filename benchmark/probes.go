package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"munin"
	"munin/internal/bufpool"
	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/protocol"
	"munin/internal/stats"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// The layer probes time the exported functions of one layer at a time,
// on inputs shaped like the workload the probe is named against in
// README.md. They measure the layers from outside: nothing here reaches
// into a layer's unexported state.
var probeUnits = map[string]string{
	"stats.add_ns.t1":                  "ns",
	"stats.add_ns.t2":                  "ns",
	"core.read_hit_ns.t1":              "ns",
	"core.read_hit_ns.t2":              "ns",
	"core.write_hit_ns.t1":             "ns",
	"core.run_us":                      "us",
	"core.new_close_ms.tcp":            "ms",
	"protocol.read_hit_ns":             "ns",
	"protocol.write_buffered_ns":       "ns",
	"protocol.flush_us.32x1k":          "us",
	"protocol.fault_read_us.4k":        "us",
	"protocol.fault_write_us.4k":       "us",
	"duq.mark_ns":                      "ns",
	"duq.drain_commit_ns.32":           "ns",
	"memory.twin_ns.1k":                "ns",
	"memory.diff_ns.1k":                "ns",
	"memory.apply_ns.1k":               "ns",
	"memory.spans_encode_ns":           "ns",
	"memory.spans_decode_ns":           "ns",
	"msg.marshal_ns.64":                "ns",
	"msg.unmarshal_ns.64":              "ns",
	"msg.marshal_ns.4k":                "ns",
	"msg.unmarshal_ns.4k":              "ns",
	"msg.frame_encode_ns.8":            "ns",
	"msg.frame_decode_ns.8":            "ns",
	"transport.tcp.send_recv_us":       "us",
	"transport.chan.send_recv_ns":      "ns",
	"transport.tcp.sendowned_flush_us": "us",
	"vkernel.call_rtt_us.tcp":          "us",
	"vkernel.call_rtt_us.chan":         "us",
	"vkernel.call_rtt_us.tcp.4k":       "us",
	"vkernel.call_allocs":              "1",
	"vkernel.multicast_rtt_us.tcp":     "us",
	"vkernel.pipelined8_rtt_us.tcp":    "us",
	"dlock.acquire_remote_us":          "us",
	"dlock.acquire_local_ns":           "ns",
	"dlock.barrier_us":                 "us",
	"dlock.fetchadd_us":                "us",
}

// Call counts at scale 1: cheap calls, calls that cross the wire once,
// and whole protocol operations.
const (
	callsCheap = 200_000
	callsWire  = 10_000
	callsHeavy = 3_000
)

var (
	probeOnce   sync.Once
	probeValues map[string]float64
	probeErr    error
)

// probes runs every layer probe once per process and returns the values
// by metric name. scale shrinks the call counts for short passes.
func probes(scale float64) (map[string]float64, error) {
	probeOnce.Do(func() {
		p := &prober{scale: scale, out: map[string]float64{}}
		for _, group := range []func(*prober) error{
			probeStats, probeCore, probeProtocolHit, probeFlush, probeFault,
			probeDuqMemory, probeMsg, probeTransport, probeVkernel, probeDlock,
		} {
			if err := group(p); err != nil {
				probeErr = err
				break
			}
		}
		probeValues = p.out
	})
	return probeValues, probeErr
}

type prober struct {
	scale float64
	out   map[string]float64
}

func (p *prober) calls(n int) int { return max(100, int(float64(n)*p.scale)) }

// firstError keeps the first error a probe's timed closures ran into.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// Results the compiler must not see as dead.
var (
	sinkBytes []byte
	sinkMsg   *msg.Msg
	sinkRaw   [][]byte
)

// perCall returns the cost of one call of f in ns: n calls in five
// batches after a warm-up, reported as the median batch mean.
func perCall(n int, f func()) float64 { return perCallSeq(n, f)[0] }

// perCallSeq is perCall for a sequence of steps that must alternate:
// every iteration runs each step once and each step is timed on its own.
func perCallSeq(n int, steps ...func()) []float64 {
	const batches = 5
	per := max(1, n/batches)
	for i := 0; i < per/2+1; i++ {
		for _, f := range steps {
			f()
		}
	}
	means := make([][]float64, len(steps))
	for b := 0; b < batches; b++ {
		total := make([]time.Duration, len(steps))
		if len(steps) == 1 {
			t := time.Now()
			for i := 0; i < per; i++ {
				steps[0]()
			}
			total[0] = time.Since(t)
		} else {
			for i := 0; i < per; i++ {
				for s, f := range steps {
					t := time.Now()
					f()
					total[s] += time.Since(t)
				}
			}
		}
		for s := range steps {
			means[s] = append(means[s], float64(total[s].Nanoseconds())/float64(per))
		}
	}
	out := make([]float64, len(steps))
	for s := range steps {
		out[s] = median(means[s])
	}
	return out
}

// contend gives the probes that time callers against each other a
// processor per caller, whatever the workload of this pass runs on; the
// returned function puts the setting back.
func contend(callers int) (restore func()) {
	old := runtime.GOMAXPROCS(max(callers, runtime.GOMAXPROCS(0)))
	return func() { runtime.GOMAXPROCS(old) }
}

// lineUp returns what each of n callers calls once before it starts
// timing: it spins until all of them have, so that every caller is
// running on a processor of its own when the clocks start. A second
// processor that has been idle takes the hypervisor a millisecond to
// wake, which is longer than a batch of cheap calls. The spin does not
// yield: a caller that yielded would hand its processor to the next one.
func lineUp(n int) func() {
	var arrived atomic.Int32
	return func() {
		arrived.Add(1)
		for arrived.Load() < int32(n) {
		}
	}
}

// perCallParallel runs perCall(n, f(g)) on each of g goroutines at once
// and returns the mean of what they saw. Callers that share a mutex hold
// it in stretches of about a millisecond while the other sleeps, so with
// more than one caller a batch is made five times longer, long enough to
// hold several stretches of each.
func perCallParallel(goroutines, n int, f func(g int) func()) float64 {
	defer contend(goroutines)()
	if goroutines > 1 {
		n *= 5
	}
	ready := lineUp(goroutines)
	res := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready()
			res[g] = perCall(n, f(g))
		}()
	}
	wg.Wait()
	return mean(res)
}

// probeStats times the counter increment every Read and Write pays.
func probeStats(p *prober) error {
	var set stats.Set
	add := func(int) func() { return func() { set.Add(stats.CReads, 1) } }
	n := p.calls(callsCheap)
	p.out["stats.add_ns.t1"] = perCallParallel(1, n, add)
	p.out["stats.add_ns.t2"] = perCallParallel(2, n, add)
	return nil
}

// probeCore times the public API on the hit workload's shape — replicas
// of 64 4 KB objects, every thread on node 0 — plus an empty Run and a
// New/Close of the three-node TCP cluster the round-trip workloads use.
func probeCore(p *prober) error {
	const objects, size = 64, 4096
	sys, err := munin.New(munin.Config{
		Nodes: 2, Transport: "tcp",
		Placement: func(int, int, int) munin.NodeID { return 0 },
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	ro := make([]munin.RegionID, objects)
	rw := make([]munin.RegionID, objects)
	for o := range ro {
		ro[o] = sys.Alloc(fmt.Sprintf("probe.ro%d", o), size, munin.WriteOnce, optionsHome(1), nil)
		rw[o] = sys.Alloc(fmt.Sprintf("probe.rw%d", o), size, munin.WriteMany, optionsHome(0), nil)
	}
	n := p.calls(callsCheap)
	timed := func(threads int, access func(c munin.Ctx, k int)) float64 {
		defer contend(threads)()
		ready := lineUp(threads)
		res := make([]float64, threads)
		sys.Run(threads, func(c munin.Ctx) {
			for _, r := range ro {
				munin.ReadU64(c, r, 0)
			}
			ready()
			k := c.ThreadID()
			res[c.ThreadID()] = perCall(n, func() {
				access(c, k)
				k += 7
			})
		})
		return mean(res)
	}
	read := func(c munin.Ctx, k int) { munin.ReadU64(c, ro[k%objects], k*wordBytes%size) }
	write := func(c munin.Ctx, k int) {
		munin.WriteU64(c, rw[(k*driverThreads+c.ThreadID())%objects], k*wordBytes%size, uint64(k))
	}
	p.out["core.read_hit_ns.t1"] = timed(1, read)
	p.out["core.read_hit_ns.t2"] = timed(2, read)
	p.out["core.write_hit_ns.t1"] = timed(1, write)
	p.out["core.run_us"] = perCall(p.calls(callsWire), func() {
		sys.Run(driverThreads, func(munin.Ctx) {})
	}) / 1e3

	var failed firstError
	p.out["core.new_close_ms.tcp"] = perCall(p.calls(callsHeavy)/50, func() {
		s, err := munin.New(munin.Config{Nodes: 3, Transport: "tcp"})
		if err != nil {
			failed.note(err)
			return
		}
		s.Close()
	}) / 1e6
	return failed.err
}

// bareCluster is a cluster with a lock service and a protocol node on
// every kernel and nothing above them.
type bareCluster struct {
	clu   *cluster.Cluster
	locks []*dlock.Service
	nodes []*protocol.Node
}

func newBareCluster(nodes int, transport string) (*bareCluster, error) {
	clu, err := cluster.New(cluster.Config{Nodes: nodes, Transport: transport})
	if err != nil {
		return nil, err
	}
	b := &bareCluster{clu: clu}
	for i := 0; i < nodes; i++ {
		k := clu.Kernel(msg.NodeID(i))
		ls := dlock.NewService(k)
		b.locks = append(b.locks, ls)
		b.nodes = append(b.nodes, protocol.NewNode(k, ls))
	}
	return b, nil
}

// alloc installs count objects cluster-wide and returns their IDs.
func (b *bareCluster) alloc(first, count, size int, annot protocol.Annotation, home int) []memory.ObjectID {
	ids := make([]memory.ObjectID, count)
	for i := range ids {
		ids[i] = memory.ObjectID(first + i)
		opts := protocol.DefaultOptions()
		opts.Home = msg.NodeID(home)
		b.nodes[0].Alloc(protocol.Meta{
			ID: ids[i], Name: fmt.Sprintf("probe.%d", ids[i]), Size: size, Annot: annot, Opts: opts,
		}, nil)
	}
	return ids
}

// probeProtocolHit times protocol.Node directly on valid local copies:
// the hit path without core's region lookup.
func probeProtocolHit(p *prober) error {
	const objects, size = 64, 4096
	b, err := newBareCluster(2, "chan")
	if err != nil {
		return err
	}
	defer b.clu.Close()
	ro := b.alloc(1, objects, size, protocol.WriteOnce, 1)
	rw := b.alloc(1+objects, objects, size, protocol.WriteMany, 0)
	node, q := b.nodes[0], duq.New()
	var word [wordBytes]byte
	k := 0
	n := p.calls(callsCheap)
	p.out["protocol.read_hit_ns"] = perCall(n, func() {
		node.Read(q, ro[k%objects], k*wordBytes%size, word[:])
		k += 7
	})
	p.out["protocol.write_buffered_ns"] = perCall(n, func() {
		node.Write(q, rw[k%objects], k*wordBytes%size, word[:])
		k += 7
	})
	return node.TryFlushQueue(q)
}

// probeFlush times one TryFlushQueue of the flush workload's shape: 32
// dirty 1 KB write-many objects, 8 words each, homed on a remote node
// that relays to one other copy holder.
func probeFlush(p *prober) error {
	const objects, size, perRound = 32, 1024, 8
	b, err := newBareCluster(3, "tcp")
	if err != nil {
		return err
	}
	defer b.clu.Close()
	ids := b.alloc(1, objects, size, protocol.WriteMany, 2)
	var word [wordBytes]byte
	qs := []*duq.Queue{duq.New(), duq.New()}
	for _, id := range ids {
		b.nodes[0].Read(qs[0], id, 0, word[:])
		b.nodes[1].Read(qs[1], id, 0, word[:])
	}
	round := 0
	var failed firstError
	res := perCallSeq(p.calls(callsHeavy),
		func() {
			round++
			binary.BigEndian.PutUint64(word[:], uint64(round))
			for _, id := range ids {
				for j := 0; j < perRound; j++ {
					b.nodes[0].Write(qs[0], id, (round*perRound+j)*wordBytes%size, word[:])
				}
			}
		},
		func() { failed.note(b.nodes[0].TryFlushQueue(qs[0])) })
	p.out["protocol.flush_us.32x1k"] = res[1] / 1e3
	return failed.err
}

// probeFault times the ownership path on the fault workload's shape: a
// write that must take a 4 KB conventional object away from a reader,
// then the read that must fetch it back.
func probeFault(p *prober) error {
	const objects, size = 16, 4096
	b, err := newBareCluster(3, "tcp")
	if err != nil {
		return err
	}
	defer b.clu.Close()
	ids := b.alloc(1, objects, size, protocol.Conventional, 2)
	qs := []*duq.Queue{duq.New(), duq.New()}
	var word [wordBytes]byte
	page := make([]byte, size)
	k := 0
	res := perCallSeq(p.calls(callsHeavy),
		func() { b.nodes[1].Write(qs[1], ids[k%objects], 0, word[:]) },
		func() {
			b.nodes[0].Read(qs[0], ids[k%objects], 0, page)
			k++
		})
	p.out["protocol.fault_write_us.4k"] = res[0] / 1e3
	p.out["protocol.fault_read_us.4k"] = res[1] / 1e3
	return nil
}

// probeDuqMemory times the pieces a flush is made of, on one 1 KB object
// with 8 dirty words: the queue, the twin, the diff and its codec.
func probeDuqMemory(p *prober) error {
	const objects, size, perRound = 32, 1024, 8
	n := p.calls(callsCheap)

	q := duq.New()
	var scratch []memory.ObjectID
	res := perCallSeq(n/objects,
		func() {
			for j := 0; j < perRound; j++ {
				for o := 1; o <= objects; o++ {
					q.MarkDirty(memory.ObjectID(o))
				}
			}
		},
		func() {
			scratch = q.DrainInto(scratch[:0])
			q.Commit(scratch)
		})
	p.out["duq.mark_ns"] = res[0] / (objects * perRound)
	p.out["duq.drain_commit_ns.32"] = res[1]

	cur := make([]byte, size)
	twin := memory.MakeTwin(cur)
	for j := 0; j < perRound; j++ {
		binary.BigEndian.PutUint64(cur[(j*17+3)*wordBytes%size:], mix(1, 0, j))
	}
	dst := make([]byte, 0, size)
	p.out["memory.twin_ns.1k"] = perCall(n, func() { dst = memory.MakeTwinInto(dst, cur) })
	var spans []memory.Span
	var data []byte
	p.out["memory.diff_ns.1k"] = perCall(n, func() { spans, data = memory.Diff(spans[:0], data[:0], twin, cur, 0) })
	obj := make([]byte, size)
	p.out["memory.apply_ns.1k"] = perCall(n, func() { memory.ApplySpans(obj, spans) })
	enc := make([]byte, 0, memory.EncodedSpansSize(spans))
	var b msg.Builder
	p.out["memory.spans_encode_ns"] = perCall(n, func() {
		b.Reset(enc[:0])
		memory.EncodeSpans(&b, spans)
	})
	enc = b.Bytes()
	var decoded []memory.Span
	var decodedData []byte
	var failed firstError
	p.out["memory.spans_decode_ns"] = perCall(n, func() {
		r := msg.NewReader(enc)
		decoded, decodedData = memory.DecodeSpansInto(decoded[:0], decodedData[:0], r)
		failed.note(r.Err())
	})
	return failed.err
}

// probeMsg times the wire format: a header-sized message as sync sends
// them, a 4 KB one as fault does, and an 8-message frame.
func probeMsg(p *prober) error {
	n := p.calls(callsCheap)
	var failed firstError
	for _, shape := range []struct {
		suffix string
		size   int
	}{{"64", 64}, {"4k", 4096}} {
		m := &msg.Msg{Kind: msg.KindPing, From: 0, To: 1, Seq: 7, Payload: make([]byte, shape.size)}
		p.out["msg.marshal_ns."+shape.suffix] = perCall(n, func() { sinkBytes = m.Marshal() })
		enc := m.Marshal()
		p.out["msg.unmarshal_ns."+shape.suffix] = perCall(n, func() {
			var err error
			sinkMsg, err = msg.Unmarshal(enc)
			failed.note(err)
		})
	}
	encoded := make([][]byte, 8)
	for i := range encoded {
		encoded[i] = (&msg.Msg{Kind: msg.KindPing, To: 1, Seq: uint64(i), Payload: make([]byte, 64)}).Marshal()
	}
	p.out["msg.frame_encode_ns.8"] = perCall(n, func() { sinkBytes = msg.EncodeFrame(encoded) })
	frame := msg.EncodeFrame(encoded)
	p.out["msg.frame_decode_ns.8"] = perCall(n, func() {
		var err error
		sinkRaw, err = msg.DecodeFrameRaw(frame)
		failed.note(err)
	})
	return failed.err
}

// probeTransport times one message across each substrate: Send to Recv
// over loopback TCP and over the chan network, and the zero-copy
// SendOwned plus the Flush fence the batched flush ends with.
func probeTransport(p *prober) error {
	payload := make([]byte, 64)
	var failed firstError
	note := failed.note
	sendRecv := func(net transport.Network) float64 {
		from, to := net.Endpoint(0), net.Endpoint(1)
		return perCall(p.calls(callsWire), func() {
			note(from.Send(&msg.Msg{Kind: msg.KindPing, To: 1, Payload: payload}))
			_, err := to.Recv()
			note(err)
		})
	}
	cn := transport.NewChanNetwork(2, transport.CostModel{})
	p.out["transport.chan.send_recv_ns"] = sendRecv(cn)
	note(cn.Close())

	tn, err := transport.NewTCPNetwork(2, transport.CostModel{})
	if err != nil {
		return err
	}
	p.out["transport.tcp.send_recv_us"] = sendRecv(tn) / 1e3

	from, to := tn.Endpoint(0), tn.Endpoint(1)
	owned, ok := from.(transport.EncodedSender)
	if !ok {
		return fmt.Errorf("tcp endpoint is not an EncodedSender")
	}
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			if _, err := to.Recv(); err != nil {
				return
			}
		}
	}()
	seq := uint64(0)
	p.out["transport.tcp.sendowned_flush_us"] = perCall(p.calls(callsWire), func() {
		seq++
		wb := bufpool.Get(msg.HeaderSize + 128)
		wb.B = wb.B[:msg.HeaderSize+128]
		msg.FillHeader(wb.B, msg.KindPing, 0, 0, 1, seq)
		note(owned.SendOwned(wb))
		note(from.Flush())
	}) / 1e3
	note(tn.Close())
	drained.Wait()
	return failed.err
}

// Probe message kinds: kindEcho replies with the request's payload,
// kindPage with 4 KB whatever it was sent, the shape of a read fault.
const (
	kindEcho = msg.KindAppBase + 0x40
	kindPage = msg.KindAppBase + 0x41
)

var probePage = make([]byte, 4096)

func probeDispatch(k *vkernel.Kernel, req *msg.Msg) {
	switch req.Kind {
	case kindEcho:
		_ = k.Reply(req, req.Payload) // fails only at shutdown, when the caller is gone too
	case kindPage:
		_ = k.Reply(req, probePage)
	}
}

// probeVkernel times the call/dispatch/reply/wake round trip sync is
// made of, over both substrates, with a 4 KB reply, to two destinations
// at once, and eight deep.
func probeVkernel(p *prober) error {
	payload := make([]byte, 64)
	var failed firstError
	note := failed.note
	n := p.calls(callsWire)
	for _, tr := range []string{"chan", "tcp"} {
		clu, err := cluster.New(cluster.Config{Nodes: 3, Transport: tr})
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			clu.Kernel(msg.NodeID(i)).Handle(kindEcho, kindPage, probeDispatch)
		}
		k := clu.Kernel(0)
		call := func(kind msg.Kind) func() {
			return func() {
				_, err := k.Call(1, kind, payload)
				note(err)
			}
		}
		p.out["vkernel.call_rtt_us."+tr] = perCall(n, call(kindEcho)) / 1e3
		if tr == "tcp" {
			p.out["vkernel.call_rtt_us.tcp.4k"] = perCall(n, call(kindPage)) / 1e3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				call(kindEcho)()
			}
			runtime.ReadMemStats(&after)
			p.out["vkernel.call_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
			members := []msg.NodeID{1, 2}
			p.out["vkernel.multicast_rtt_us.tcp"] = perCall(n, func() {
				_, err := k.MulticastCall(members, kindEcho, payload)
				note(err)
			}) / 1e3
			var pending [8]*vkernel.Pending
			p.out["vkernel.pipelined8_rtt_us.tcp"] = perCall(n/4, func() {
				for i := range pending {
					var err error
					pending[i], err = k.CallStart(1, kindEcho, payload)
					note(err)
				}
				note(k.Flush())
				for _, pd := range pending {
					_, err := pd.Wait()
					note(err)
				}
			}) / 1e3
		}
		clu.Close()
	}
	return failed.err
}

// probeDlock times the synchronisation objects of the sync workload, all
// homed on node 2: a lock that moves between nodes 0 and 1 on every
// acquire, one that stays put, a two-party barrier and an atomic.
func probeDlock(p *prober) error {
	b, err := newBareCluster(3, "tcp")
	if err != nil {
		return err
	}
	defer b.clu.Close()
	const moving, resident, bar, atom = 2, 5, 2, 2 // all = 2 mod 3
	n := p.calls(callsWire)
	res := perCallSeq(n/2,
		func() { b.locks[0].Acquire(moving) }, func() { b.locks[0].Release(moving) },
		func() { b.locks[1].Acquire(moving) }, func() { b.locks[1].Release(moving) })
	p.out["dlock.acquire_remote_us"] = (res[0] + res[2]) / 2 / 1e3
	p.out["dlock.acquire_local_ns"] = perCallSeq(p.calls(callsCheap),
		func() { b.locks[0].Acquire(resident) }, func() { b.locks[0].Release(resident) })[0]
	p.out["dlock.barrier_us"] = perCallParallel(2, n, func(g int) func() {
		return func() { b.locks[g].BarrierWait(bar, 2) }
	}) / 1e3
	p.out["dlock.fetchadd_us"] = perCall(n, func() { b.locks[0].FetchAdd(atom, 1) }) / 1e3
	return nil
}
