package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"munin/internal/msg"
)

func testNetworks(t *testing.T, n int) map[string]Network {
	t.Helper()
	nets := map[string]Network{
		"chan": NewChanNetwork(n, CostModel{}),
	}
	tcp, err := NewTCPNetwork(n, CostModel{})
	if err != nil {
		t.Fatalf("tcp network: %v", err)
	}
	nets["tcp"] = tcp
	return nets
}

func TestSendRecvBothTransports(t *testing.T) {
	for name, net := range testNetworks(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			m := &msg.Msg{Kind: msg.KindPing, To: 2, Seq: 7, Payload: []byte("hi")}
			if err := net.Endpoint(0).Send(m); err != nil {
				t.Fatal(err)
			}
			got, err := net.Endpoint(2).Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.From != 0 || got.Seq != 7 || string(got.Payload) != "hi" {
				t.Fatalf("got %v", got)
			}
		})
	}
}

func TestSendToSelf(t *testing.T) {
	net := NewChanNetwork(2, CostModel{})
	defer net.Close()
	if err := net.Endpoint(1).Send(&msg.Msg{Kind: msg.KindPing, To: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := net.Endpoint(1).Recv()
	if err != nil || got.From != 1 {
		t.Fatalf("self send: %v %v", got, err)
	}
}

func TestSendUnknownNode(t *testing.T) {
	net := NewChanNetwork(2, CostModel{})
	defer net.Close()
	if err := net.Endpoint(0).Send(&msg.Msg{To: 9}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
	if err := net.Endpoint(0).Send(&msg.Msg{To: -1}); err == nil {
		t.Fatal("send to negative node succeeded")
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for name, net := range testNetworks(t, 2) {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := net.Endpoint(1).Recv()
				done <- err
			}()
			net.Close()
			if err := <-done; !errors.Is(err, errClosed) {
				t.Fatalf("err = %v, want errClosed", err)
			}
		})
	}
}

func TestFIFOPerSenderReceiver(t *testing.T) {
	for name, net := range testNetworks(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			const n = 200
			for i := 0; i < n; i++ {
				m := &msg.Msg{Kind: msg.KindPing, To: 1, Seq: uint64(i)}
				if err := net.Endpoint(0).Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				got, err := net.Endpoint(1).Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got.Seq != uint64(i) {
					t.Fatalf("out of order: got seq %d want %d", got.Seq, i)
				}
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, net := range testNetworks(t, 5) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			const per = 100
			var wg sync.WaitGroup
			for s := 1; s < 5; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m := &msg.Msg{Kind: msg.KindPing, To: 0, Seq: uint64(i)}
						if err := net.Endpoint(msg.NodeID(s)).Send(m); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			counts := make(map[msg.NodeID]int)
			for i := 0; i < 4*per; i++ {
				got, err := net.Endpoint(0).Recv()
				if err != nil {
					t.Fatal(err)
				}
				counts[got.From]++
			}
			wg.Wait()
			for s := msg.NodeID(1); s < 5; s++ {
				if counts[s] != per {
					t.Fatalf("node %d delivered %d, want %d", s, counts[s], per)
				}
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	net := NewChanNetwork(2, DefaultCostModel())
	defer net.Close()
	m := &msg.Msg{Kind: msg.KindCohBase, To: 1, Payload: make([]byte, 100)}
	size := int64(m.WireSize())
	if err := net.Endpoint(0).Send(m); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint(1).Recv(); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.Messages() != 1 || s.Bytes() != size {
		t.Fatalf("stats = %v, want 1 msg %d bytes", s, size)
	}
	if s.NodeSent(0) != 1 || s.NodeReceived(1) != 1 || s.NodeSentBytes(0) != size {
		t.Fatalf("per-node stats wrong: sent=%d recvd=%d bytes=%d",
			s.NodeSent(0), s.NodeReceived(1), s.NodeSentBytes(0))
	}
	want := DefaultCostModel().Cost(int(size))
	if s.ModeledNetworkNs() != want {
		t.Fatalf("modeled = %d, want %d", s.ModeledNetworkNs(), want)
	}
	if s.ByClass()["coherence"] != 1 {
		t.Fatalf("by-class = %v", s.ByClass())
	}
	s.Reset()
	if s.Messages() != 0 || s.Bytes() != 0 || s.ModeledNetworkNs() != 0 {
		t.Fatalf("reset failed: %v", s)
	}
}

func TestMulticastChargedOnceOnChan(t *testing.T) {
	net := NewChanNetwork(4, CostModel{})
	defer net.Close()
	m := &msg.Msg{Kind: msg.KindCohBase, From: 0, Payload: []byte("update")}
	if err := net.Multicast(m, []msg.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Hardware multicast: one wire message, three deliveries.
	if got := net.Stats().Messages(); got != 1 {
		t.Fatalf("multicast charged %d messages, want 1", got)
	}
	for _, n := range []msg.NodeID{1, 2, 3} {
		got, err := net.Endpoint(n).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != "update" || got.Flags&msg.FlagMulticast == 0 {
			t.Fatalf("node %d got %v", n, got)
		}
	}
}

func TestMulticastUnicastFallbackOnTCP(t *testing.T) {
	tcp, err := NewTCPNetwork(3, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	m := &msg.Msg{Kind: msg.KindCohBase, From: 0, Payload: []byte("u")}
	if err := tcp.Multicast(m, []msg.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []msg.NodeID{1, 2} {
		if _, err := tcp.Endpoint(n).Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tcp.Stats().Messages(); got != 2 {
		t.Fatalf("tcp multicast charged %d messages, want 2 (unicast fallback)", got)
	}
}

// TestTCPCoalescesQueuedMessages stages N messages for one peer while
// its writer is held, then releases it: everything queued must leave in
// one vectored write (one frame) and still arrive complete and in
// order.
func TestTCPCoalescesQueuedMessages(t *testing.T) {
	tcp, err := NewTCPNetwork(2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	ep := tcp.eps[0]
	peer := ep.peers[1]

	peer.q.hold()
	const n = 50
	for i := 0; i < n; i++ {
		m := &msg.Msg{Kind: msg.KindCohBase, To: 1, Seq: uint64(i), Payload: []byte("diff")}
		if err := ep.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	baseWrites := tcp.Stats().WireWrites()
	baseFrames := tcp.Stats().WireFrames()
	peer.q.release()
	if err := ep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	for i := 0; i < n; i++ {
		got, err := tcp.Endpoint(1).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint64(i) || string(got.Payload) != "diff" {
			t.Fatalf("message %d: got %v", i, got)
		}
	}
	if w := tcp.Stats().WireWrites() - baseWrites; w != 1 {
		t.Errorf("%d queued messages took %d wire writes, want 1", n, w)
	}
	if f := tcp.Stats().WireFrames() - baseFrames; f != 1 {
		t.Errorf("%d queued messages took %d frames, want 1", n, f)
	}
	if c := tcp.Stats().WireCoalesced(); c < n {
		t.Errorf("wire.coalesced = %d, want >= %d", c, n)
	}
	if c := tcp.Stats().ClassMessages("wire.coalesced.coherence"); c < n {
		t.Errorf("wire.coalesced.coherence = %d, want >= %d", c, n)
	}
}

// TestTCPCloseWakesBlockedSender fills a peer's bounded send queue with
// the writer held, leaves one sender blocked on the bound, and closes
// the network: the blocked sender must get errClosed (not a write on a
// closed connection), and Close must return.
func TestTCPCloseWakesBlockedSender(t *testing.T) {
	tcp, err := NewTCPNetwork(2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	ep := tcp.eps[0]
	ep.peers[1].q.hold()
	for i := 0; i < sendQueueDepth; i++ {
		if err := ep.Send(&msg.Msg{Kind: msg.KindPing, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- ep.Send(&msg.Msg{Kind: msg.KindPing, To: 1})
	}()
	// The close must both wake the blocked sender with errClosed and
	// still drain the already-queued messages to the wire.
	if err := tcp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-blocked; !errors.Is(err, errClosed) {
		t.Fatalf("blocked sender got %v, want errClosed", err)
	}
	if err := ep.Send(&msg.Msg{Kind: msg.KindPing, To: 1}); !errors.Is(err, errClosed) {
		t.Fatalf("enqueue after close got %v, want errClosed", err)
	}
	if err := ep.Flush(); !errors.Is(err, errClosed) {
		t.Fatalf("flush after close got %v, want errClosed", err)
	}
}

// TestTCPCloseDeliversQueued checks the deterministic drain: messages
// enqueued (but not yet written) when Close starts are still delivered
// to their destination queues before Recv reports errClosed.
func TestTCPCloseDeliversQueued(t *testing.T) {
	tcp, err := NewTCPNetwork(2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	ep := tcp.eps[0]
	ep.peers[1].q.hold()
	const n = 7
	for i := 0; i < n; i++ {
		if err := ep.Send(&msg.Msg{Kind: msg.KindPing, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tcp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := tcp.Endpoint(1).Recv()
		if err != nil {
			t.Fatalf("recv %d after close: %v", i, err)
		}
		if got.Seq != uint64(i) {
			t.Fatalf("recv %d: got seq %d", i, got.Seq)
		}
	}
	if _, err := tcp.Endpoint(1).Recv(); !errors.Is(err, errClosed) {
		t.Fatalf("drained recv got %v, want errClosed", err)
	}
}

// TestTCPCloseDeliversQueuedBothWays is the duplex form of the drain
// check: both directions of one pair — one socket — have messages
// queued when Close starts, and every one of them is delivered before
// either Recv reports errClosed. A reader that closed the connection on
// seeing the other direction's EOF would lose one side's batch.
func TestTCPCloseDeliversQueuedBothWays(t *testing.T) {
	tcp, err := NewTCPNetwork(2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for from := msg.NodeID(0); from < 2; from++ {
		ep := tcp.eps[from]
		ep.peers[1-from].q.hold()
		for i := 0; i < n; i++ {
			if err := ep.Send(&msg.Msg{Kind: msg.KindPing, To: 1 - from, Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tcp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for to := msg.NodeID(0); to < 2; to++ {
		for i := 0; i < n; i++ {
			got, err := tcp.Endpoint(to).Recv()
			if err != nil {
				t.Fatalf("node %d recv %d after close: %v", to, i, err)
			}
			if got.Seq != uint64(i) || got.From != 1-to {
				t.Fatalf("node %d recv %d: got seq %d from %d", to, i, got.Seq, got.From)
			}
		}
		if _, err := tcp.Endpoint(to).Recv(); !errors.Is(err, errClosed) {
			t.Fatalf("node %d drained recv got %v, want errClosed", to, err)
		}
	}
}

// TestTCPOneDuplexConnectionPerPair pins the connection layout: n nodes
// hold n(n-1)/2 connections, node i's end of its connection to j is the
// other end of j's connection to i, and a request and its reply cross
// the same socket — shown by closing every other connection first.
func TestTCPOneDuplexConnectionPerPair(t *testing.T) {
	const n = 4
	tcp, err := NewTCPNetwork(n, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	conns := map[string]bool{} // keyed by the lower node's local address
	for i := msg.NodeID(0); i < n; i++ {
		if tcp.eps[i].peers[i] != nil {
			t.Errorf("node %d holds a connection to itself", i)
		}
		for j := i + 1; j < n; j++ {
			a, b := PairConn(tcp, i, j), PairConn(tcp, j, i)
			if a.LocalAddr().String() != b.RemoteAddr().String() || a.RemoteAddr().String() != b.LocalAddr().String() {
				t.Errorf("pair (%d,%d): ends %v-%v and %v-%v are not one connection",
					i, j, a.LocalAddr(), a.RemoteAddr(), b.LocalAddr(), b.RemoteAddr())
			}
			conns[a.LocalAddr().String()] = true
		}
	}
	if want := n * (n - 1) / 2; len(conns) != want {
		t.Errorf("%d nodes hold %d connections, want %d", n, len(conns), want)
	}

	for i := msg.NodeID(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i != 0 || j != 1 {
				a, b := PairConn(tcp, i, j), PairConn(tcp, j, i)
				a.Close()
				b.Close()
			}
		}
	}
	if err := tcp.Endpoint(0).Send(&msg.Msg{Kind: msg.KindPing, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if req, err := tcp.Endpoint(1).Recv(); err != nil || req.From != 0 || req.Seq != 1 {
		t.Fatalf("request: %v, %v", req, err)
	}
	if err := tcp.Endpoint(1).Send(&msg.Msg{Kind: msg.KindPing, Flags: msg.FlagReply, To: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if rep, err := tcp.Endpoint(0).Recv(); err != nil || rep.From != 1 || !rep.IsReply() {
		t.Fatalf("reply: %v, %v", rep, err)
	}
}

// writeRawFrame puts m on conn as a one-message frame with its headers
// exactly as given, bypassing the endpoint that would stamp From.
func writeRawFrame(t *testing.T, conn net.Conn, m *msg.Msg) {
	t.Helper()
	frame := msg.EncodeFrame([][]byte{m.Marshal()})
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := conn.Write(append(hdr[:], frame...)); err != nil {
		t.Fatal(err)
	}
}

// TestTCPMisroutedFramesCounted is the tcp twin of
// TestMeshMisroutedFramesCounted: the reader at node 1's end of the
// (0, 1) connection accepts only messages from 0 to 1; anything else is
// dropped but counted, and the stream carries on.
func TestTCPMisroutedFramesCounted(t *testing.T) {
	tcp, err := NewTCPNetwork(3, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	conn := tcp.eps[0].peers[1].conn // its writer is idle: nothing is sent through the endpoint
	writeRawFrame(t, conn, &msg.Msg{Kind: msg.KindPing, From: 0, To: 2, Payload: []byte("wrong destination")})
	writeRawFrame(t, conn, &msg.Msg{Kind: msg.KindPing, From: 2, To: 1, Payload: []byte("wrong sender")})
	// And a well-routed one behind them, to sync on delivery.
	writeRawFrame(t, conn, &msg.Msg{Kind: msg.KindPing, From: 0, To: 1, Payload: []byte("ok")})
	if m, err := tcp.Endpoint(1).Recv(); err != nil || string(m.Payload) != "ok" {
		t.Fatalf("got %v, %v", m, err)
	}
	if got := tcp.Stats().WireMisrouted(); got != 2 {
		t.Fatalf("wire.misrouted = %d, want 2", got)
	}
	if got := tcp.Stats().Messages(); got != 0 {
		t.Errorf("hand-written frames were charged as %d sent messages", got)
	}
}

// TestChanSendFlush pins the chan transport to the same extended
// interface: Send delivers immediately and Flush is a trivial fence.
func TestChanSendFlush(t *testing.T) {
	net := NewChanNetwork(2, CostModel{})
	defer net.Close()
	if err := net.Endpoint(0).Send(&msg.Msg{Kind: msg.KindPing, To: 1, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(0).Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := net.Endpoint(1).Recv()
	if err != nil || string(got.Payload) != "q" {
		t.Fatalf("recv: %v %v", got, err)
	}
	if net.Stats().WireWrites() != 1 || net.Stats().WireCoalesced() != 0 {
		t.Fatalf("chan wire counters: writes=%d coalesced=%d",
			net.Stats().WireWrites(), net.Stats().WireCoalesced())
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{LatencyNs: 1000, NsPerByte: 2}
	if got := c.Cost(100); got != 1200 {
		t.Fatalf("cost = %d, want 1200", got)
	}
	if DefaultCostModel().Cost(0) <= 0 {
		t.Fatal("default cost model has no latency")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[msg.Kind]string{
		msg.KindPing:         "control",
		msg.KindLockBase + 1: "lock",
		msg.KindCohBase:      "coherence",
		msg.KindIvyBase + 5:  "ivy",
		msg.KindSyncBase:     "sync",
		msg.KindAppBase + 2:  "app",
	}
	for k, want := range cases {
		if got := ClassOf(k); got != want {
			t.Errorf("ClassOf(%#x) = %q, want %q", uint16(k), got, want)
		}
	}
}

func TestNewChanNetworkPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 nodes")
		}
	}()
	NewChanNetwork(0, CostModel{})
}

func TestTCPLargePayload(t *testing.T) {
	tcp, err := NewTCPNetwork(2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	m := &msg.Msg{Kind: msg.KindPing, To: 1, Payload: payload}
	if err := tcp.Endpoint(0).Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := tcp.Endpoint(1).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != len(payload) {
		t.Fatalf("len = %d, want %d", len(got.Payload), len(payload))
	}
	for i := range payload {
		if got.Payload[i] != payload[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
}

func ExampleChanNetwork() {
	net := NewChanNetwork(2, CostModel{})
	defer net.Close()
	net.Endpoint(0).Send(&msg.Msg{Kind: msg.KindPing, To: 1, Payload: []byte("ping")})
	m, _ := net.Endpoint(1).Recv()
	fmt.Println(string(m.Payload), "from", m.From)
	// Output: ping from 0
}
