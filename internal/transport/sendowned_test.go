package transport

import (
	"encoding/binary"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"testing"

	"munin/internal/bufpool"
	"munin/internal/msg"
)

// newSinkMesh builds a single-process mesh whose only peer is a
// rawSink: everything node 0 sends to node 1 crosses a real TCP
// connection and is discarded without allocating on the receive side.
func newSinkMesh(t testing.TB) (*MeshNetwork, *rawSink) {
	t.Helper()
	sink, err := newRawSink()
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: "127.0.0.1:0", 1: sink.Addr()}
	m, err := NewMeshNetwork(Topology{Self: 0, Peers: peers}, CostModel{})
	if err != nil {
		sink.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Kill, not Close: the sink acks goodbyes, but there is no
		// reason to spend the graceful drain in a test teardown.
		m.Kill()
		sink.Close()
	})
	return m, sink
}

// wireMsg builds a complete pooled wire message: header plus a payload
// of n bytes, each set to fill.
func wireMsg(to msg.NodeID, seq uint64, n int, fill byte) *bufpool.Buffer {
	wb := bufpool.Get(msg.HeaderSize + n)
	var b msg.Builder
	b.Reset(wb.B)
	b.Skip(msg.HeaderSize + n)
	wb.B = b.Bytes()
	for i := msg.HeaderSize; i < len(wb.B); i++ {
		wb.B[i] = fill
	}
	msg.FillHeader(wb.B, msg.KindPing, 0, 0, to, seq)
	return wb
}

// TestMeshSendOwnedZeroAllocs pins the tentpole guarantee: a
// steady-state flush on the send wire path — pooled encode, SendOwned
// hand-off, writer drain, fence — performs zero heap allocations.
// AllocsPerRun counts mallocs process-wide, which is why the receiver
// is a rawSink rather than a second endpoint.
func TestMeshSendOwnedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, _ := newSinkMesh(t)
	ep := m.Endpoint(0)
	es := ep.(EncodedSender)

	seq := uint64(0)
	send := func() {
		seq++
		if err := es.SendOwned(wireMsg(1, seq, 128, byte(seq))); err != nil {
			t.Fatal(err)
		}
		if err := ep.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Warmup: dial the connection, fault in the stats counters, grow
	// the queue/writer scratch and pools to steady-state capacity.
	for i := 0; i < 64; i++ {
		send()
	}

	// The GC clears sync.Pools; disable it so a collection mid-measure
	// cannot manufacture allocations that steady state never performs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("steady-state SendOwned+Flush allocated %v times per op, want 0", allocs)
	}
}

// TestMeshSendOwnedNoAliasing hammers the ownership hand-off from many
// goroutines while aggressively churning the pool, and verifies on a
// real receiving mesh that no in-flight message was scribbled by a
// reused buffer. Run under -race this also catches any writer/pool
// data race directly.
func TestMeshSendOwnedNoAliasing(t *testing.T) {
	a, b := newMeshPair(t)
	es := b.Endpoint(1).(EncodedSender)

	const senders = 4
	const perSender = 200
	var wg sync.WaitGroup
	errc := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				seq := uint64(g*perSender + i)
				if err := es.SendOwned(wireMsg(0, seq, 64, byte(seq))); err != nil {
					errc <- err
					return
				}
				// Provoke reuse: grab a pooled buffer of the same class
				// and scribble it. If the transport released the sent
				// buffer before the wire write finished, this scribble
				// lands in an in-flight frame and the receiver sees it.
				sb := bufpool.Get(msg.HeaderSize + 64)
				junk := sb.B[:cap(sb.B)]
				for j := range junk {
					junk[j] = 0xEE
				}
				sb.Release()
			}
		}(g)
	}
	go func() { wg.Wait(); close(errc) }()

	for got := 0; got < senders*perSender; got++ {
		mm, err := a.Endpoint(0).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(mm.Payload) != 64 {
			t.Fatalf("msg seq=%d: payload %d bytes, want 64", mm.Seq, len(mm.Payload))
		}
		want := byte(mm.Seq)
		for j, v := range mm.Payload {
			if v != want {
				t.Fatalf("msg seq=%d corrupted at byte %d: got %#x want %#x", mm.Seq, j, v, want)
			}
		}
	}
	for err := range errc {
		t.Fatal(err)
	}
}

// BenchmarkMeshSendOwnedFlush measures the full send wire path per
// flushed message: pooled build, SendOwned, writer drain, fence.
func BenchmarkMeshSendOwnedFlush(b *testing.B) {
	m, _ := newSinkMesh(b)
	ep := m.Endpoint(0)
	es := ep.(EncodedSender)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := es.SendOwned(wireMsg(1, uint64(i), 128, byte(i))); err != nil {
			b.Fatal(err)
		}
		if err := ep.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// rawSink is a mesh-shaped byte bucket: a listener that completes the
// hello handshake like a real peer, then reads and discards every
// frame into a fixed buffer without parsing, queuing, or allocating.
//
// It exists so the allocation test and benchmark in this file can
// measure the SENDER's wire path in isolation:
// testing.AllocsPerRun counts mallocs across all goroutines in the
// process, so a real receiving endpoint — whose reader must copy each
// frame off the wire — would drown the measurement. The sink's
// steady-state read loop touches only preallocated buffers.
//
// Goodbyes are acknowledged (so a graceful Close of the sending mesh
// still drains), but the sink never initiates traffic.
type rawSink struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// newRawSink binds a loopback listener and starts accepting.
func newRawSink() (*rawSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &rawSink{ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address, for use in a Topology.
func (s *rawSink) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and severs every connection.
func (s *rawSink) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *rawSink) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// serve runs one connection: validate the hello, accept it echoing the
// dialer's proposed epoch, then discard frames forever. All buffers
// are allocated up front — the loop body is malloc-free.
func (s *rawSink) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	if string(hello[:4]) != meshMagic ||
		binary.BigEndian.Uint16(hello[4:6]) != meshProtoVersion {
		return
	}
	var ack [helloAcceptLen]byte
	ack[0] = helloAccept
	copy(ack[1:], hello[10:18]) // agree to whatever epoch the dialer proposed
	if _, err := conn.Write(ack[:]); err != nil {
		return
	}

	var word [4]byte
	buf := make([]byte, 64<<10)
	for {
		if _, err := io.ReadFull(conn, word[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(word[:])
		if n > maxFrameLen {
			// Control word. Ack goodbyes so a graceful sender Close
			// gets its drain proof; ignore everything else.
			if n == ctrlGoodbye {
				binary.BigEndian.PutUint32(word[:], ctrlGoodbyeAck)
				if _, err := conn.Write(word[:]); err != nil {
					return
				}
			}
			continue
		}
		left := int(n)
		for left > 0 {
			chunk := left
			if chunk > len(buf) {
				chunk = len(buf)
			}
			rn, err := conn.Read(buf[:chunk])
			if err != nil {
				return
			}
			left -= rn
		}
	}
}
