package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"munin/internal/bufpool"
	"munin/internal/msg"
	"munin/internal/stats"
)

// sendQueueDepth bounds each peer connection's send queue, in messages.
// Send blocks (backpressure) when the queue is full; fences never
// count against the bound.
const sendQueueDepth = 1024

// maxFrameLen bounds a frame envelope's outer length word. Length
// words above it are control words (the mesh goodbye vocabulary), so
// the two spaces can never collide on the wire.
const maxFrameLen = 1 << 30

// TCPNetwork runs the same message abstraction over real loopback
// sockets. Every unordered node pair {i, j} shares ONE duplex TCP
// connection: node i's end is eps[i].peers[j].conn, node j's end is
// eps[j].peers[i].conn, and each end has one writer goroutine (draining
// that end's send queue) and one reader goroutine (feeding that end's
// node's receive queue). A reply therefore travels on the socket its
// request arrived on, so the kernel can piggyback the request's ACK on
// it — the V kernel's "the reply is the acknowledgement" — instead of
// answering every message with a pure-ACK segment of its own.
//
// Senders enqueue marshalled messages on the bounded per-peer send
// queue, and the writer drains whatever is queued and emits it as ONE
// multi-message frame (msg.EncodeFrame layout) via a single vectored
// write (net.Buffers). That is what keeps a batched protocol flush at
// O(1) wire writes per destination instead of one write syscall per
// message. Flush is the fence that waits for queued messages to reach
// the wire. One writer per (sender, receiver) and one stream per
// direction keep delivery FIFO per sender-receiver pair.
type TCPNetwork struct {
	eps      []*tcpEndpoint
	stats    *Stats
	cost     CostModel
	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup // per-connection-end reader goroutines
	writerWG sync.WaitGroup // per-connection-end writer goroutines
}

// NewTCPNetwork creates an n-node network over loopback TCP. All nodes
// live in this process but every message traverses the OS socket layer.
func NewTCPNetwork(n int, cost CostModel) (*TCPNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: need at least one node")
	}
	tn := &TCPNetwork{stats: newStats(n), cost: cost}
	tn.eps = make([]*tcpEndpoint, n)
	for i := range tn.eps {
		tn.eps[i] = &tcpEndpoint{net: tn, node: msg.NodeID(i), q: newQueue(), peers: make([]*tcpPeer, n)}
	}

	// The listener lives only as long as construction: each pair is
	// dialed and accepted right here, one after the other, so there is
	// no accept loop to run and nothing left listening afterwards. A
	// node's messages to itself never leave it (see Send), so i == j has
	// no connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dialed, accepted, err := connectPair(ln)
			if err != nil {
				tn.Close()
				return nil, err
			}
			a, b := tn.newPeer(dialed), tn.newPeer(accepted)
			tn.eps[i].peers[j], tn.eps[j].peers[i] = a, b
			tn.serve(tn.eps[i], msg.NodeID(j), a, b.q)
			tn.serve(tn.eps[j], msg.NodeID(i), b, a.q)
		}
	}
	return tn, nil
}

// connectPair opens one loopback connection through ln and returns its
// two ends. The dial completes against the listen backlog, so dialing
// and then accepting on one goroutine cannot deadlock. An accepted
// connection whose remote address is not the dialed end's local address
// belongs to some other process that found the port; it is closed and
// the accept repeated.
func connectPair(ln net.Listener) (dialed, accepted net.Conn, err error) {
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	for {
		accepted, err = ln.Accept()
		if err != nil {
			dialed.Close()
			return nil, nil, err
		}
		if accepted.RemoteAddr().String() == dialed.LocalAddr().String() {
			return dialed, accepted, nil
		}
		accepted.Close()
	}
}

func (tn *TCPNetwork) newPeer(conn net.Conn) *tcpPeer {
	return &tcpPeer{conn: conn, q: newSendQueue(sendQueueDepth, tn.stats.chargeStall)}
}

// serve starts the two goroutines at p, node ep's end of its connection
// to peer: the writer draining p's send queue and the reader. far is
// the send queue at peer's end, whose writer produces the stream this
// reader consumes.
func (tn *TCPNetwork) serve(ep *tcpEndpoint, peer msg.NodeID, p *tcpPeer, far *sendQueue) {
	tn.writerWG.Add(1)
	go func() {
		defer tn.writerWG.Done()
		ep.writeLoop(p)
	}()
	tn.wg.Add(1)
	go func() {
		defer tn.wg.Done()
		tn.serveConn(ep, peer, p.conn, far)
	}()
}

// errStreamLost is latched on a send queue whose stream the receiving
// end has stopped reading.
var errStreamLost = errors.New("transport: inbound stream lost")

// serveConn is the reader at node ep's end of its connection to peer:
// it reads the frames peer's writer put on the wire and pushes the
// contained messages onto ep's receive queue. Both ends of the
// connection are known here, so a message that claims another sender or
// another destination is counted (wire.misrouted) and dropped rather
// than routed by what its header says.
//
// The stream ends cleanly only at shutdown, by the peer's CloseWrite,
// after every writer has exited (see Close). Whatever ends it, the
// reader must NOT close the connection: its own end's writer shares the
// socket and may still be draining the opposite direction, whose
// messages a close would destroy. Instead it latches the loss on the
// peer's send queue (far), so peer's later sends and fences fail loudly
// instead of queueing for a stream nobody decodes, and keeps consuming
// so that a write already in flight cannot block on a full socket.
func (tn *TCPNetwork) serveConn(ep *tcpEndpoint, peer msg.NodeID, conn net.Conn, far *sendQueue) {
	readFrameStream(conn, func(m *msg.Msg) {
		if m.To != ep.node || m.From != peer {
			tn.stats.byClass.Add(stats.CWireMisrouted, 1)
			return
		}
		if ep.q.push(m) == nil {
			tn.stats.delivered(ep.node)
		}
	}, nil)
	far.fail(errStreamLost)
	io.Copy(io.Discard, conn)
}

// frameReadBuf sizes a connection's read buffer so that a whole-object
// frame already in the socket — a 4 KB page plus headers — arrives in
// one read call. With bufio's default 4096 bytes such a frame took two
// reads before the one that finds the socket empty.
const frameReadBuf = 16 << 10

// readFrameStream is the inbound wire path shared by the loopback
// harness and the mesh: it reads length-prefixed frame envelopes from
// conn and invokes deliver for every contained message until the stream
// ends or a frame fails to decode. Every frame is read into a buffer of its
// own that nothing reuses, and each message is decoded exactly once,
// here: m's payload aliases that frame, and deliver takes m over (see
// Endpoint.Recv for what the consumer may then do with it).
//
// Length words above maxFrameLen are control words, not frames: when
// ctrl is non-nil it is invoked with the word and decides whether the
// stream continues (the mesh's goodbye vocabulary rides here); when
// ctrl is nil any such word kills the stream, exactly the pre-control
// behavior the loopback harness keeps.
func readFrameStream(conn io.Reader, deliver func(m *msg.Msg), ctrl func(word uint32) bool) {
	r := bufio.NewReaderSize(conn, frameReadBuf)
	var lenbuf [4]byte
	var entries [][]byte // reused frame after frame; cleared so it pins none
	for {
		if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenbuf[:])
		if n > maxFrameLen {
			if ctrl != nil && ctrl(n) {
				continue
			}
			return
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		var err error
		if entries, err = msg.DecodeFrameRawInto(entries, frame); err != nil {
			return
		}
		for _, entry := range entries {
			m, err := msg.Unmarshal(entry)
			if err != nil {
				return
			}
			deliver(m)
		}
		clear(entries)
	}
}

// Endpoint implements Network.
func (tn *TCPNetwork) Endpoint(id msg.NodeID) Endpoint { return tn.eps[id] }

// Nodes implements Network.
func (tn *TCPNetwork) Nodes() int { return len(tn.eps) }

// Stats implements Network.
func (tn *TCPNetwork) Stats() *Stats { return tn.stats }

// Multicast falls back to unicast sends (no hardware multicast on TCP),
// charging one wire message per member — exactly the penalty the paper
// notes for refresh without multicast support. The copies are enqueued,
// not flushed: each member's writer coalesces its copy with whatever
// else is bound for that peer.
func (tn *TCPNetwork) Multicast(m *msg.Msg, members []msg.NodeID) error {
	for _, dst := range members {
		cp := *m
		cp.To = dst
		if err := tn.eps[m.From].Send(&cp); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the network down in an order that quiesces the writer
// pipeline deterministically:
//
//  1. send queues close — blocked or late senders get ErrClosed;
//  2. writers drain what was already queued onto the wire and exit, so
//     nothing ever writes on a closed connection;
//  3. the write side of every connection end shuts down, giving the
//     reader at the other end a clean EOF after it has consumed every
//     drained frame;
//  4. readers exit, having routed everything that made it to the wire;
//  5. receive queues close — blocked Recv calls return ErrClosed.
//
// Only then are the connections closed. Step 2 finishes for every
// writer before step 3 starts for any connection because the two
// directions of a pair share one socket: an end's reader sees EOF while
// that end's writer would otherwise still be entitled to write.
func (tn *TCPNetwork) Close() error {
	tn.mu.Lock()
	if tn.closed {
		tn.mu.Unlock()
		return nil
	}
	tn.closed = true
	tn.mu.Unlock()

	for _, ep := range tn.eps {
		for _, p := range ep.peers {
			if p != nil {
				p.q.close()
			}
		}
	}
	tn.writerWG.Wait()
	for _, ep := range tn.eps {
		for _, p := range ep.peers {
			if p == nil {
				continue
			}
			if tc, ok := p.conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				p.conn.Close()
			}
		}
	}
	tn.wg.Wait()
	for _, ep := range tn.eps {
		ep.q.close()
	}
	for _, ep := range tn.eps {
		for _, p := range ep.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}
	return nil
}

type tcpEndpoint struct {
	net   *TCPNetwork
	node  msg.NodeID
	q     *queue     // receive side
	peers []*tcpPeer // this node's connection ends, one per other node; nil at its own index
}

// tcpPeer is one node's end of the duplex connection it shares with one
// peer: the socket, and the bounded send queue a dedicated writer
// goroutine drains onto it.
type tcpPeer struct {
	conn net.Conn
	q    *sendQueue
}

func (e *tcpEndpoint) Node() msg.NodeID { return e.node }

// Send implements Endpoint: marshal, charge, and queue on the
// destination peer's writer, which coalesces the message with whatever
// else is bound for that peer. It does not wait for the wire — Flush
// is the fence. The marshalled form lives in a pooled buffer the writer
// releases after its write, exactly like one handed to SendOwned. A
// message to this node itself is charged and delivered like any other
// but has no wire to cross: it goes straight onto the receive queue, as
// on the mesh.
func (e *tcpEndpoint) Send(m *msg.Msg) error {
	if int(m.To) >= len(e.peers) || m.To < 0 {
		return fmt.Errorf("transport: send to unknown node %d", m.To)
	}
	m.From = e.node
	e.net.stats.charge(m, e.net.cost, e.node)
	if m.To == e.node {
		return e.net.stats.deliverBytes(e.q, e.node, m.Marshal())
	}
	return e.peers[m.To].q.putOwned(marshalPooled(m), ClassOf(m.Kind))
}

// marshalPooled marshals m into a pooled wire buffer the caller owns.
func marshalPooled(m *msg.Msg) *bufpool.Buffer {
	wb := bufpool.Get(m.WireSize())
	wb.B = m.AppendMarshal(wb.B)
	return wb
}

// SendOwned implements EncodedSender: enqueue an already-marshalled
// wire buffer, taking ownership. The buffer is released by the writer
// after its vectored write completes — or right here on any failure —
// so the hot path moves payload bytes exactly once (diff scratch →
// wire buffer) and the kernel copies them off the iovec. A self-send has
// no writer to release the buffer, so the bytes are copied for the
// receive queue (whose consumer keeps what Recv hands it) and the pooled
// buffer returns immediately.
func (e *tcpEndpoint) SendOwned(wb *bufpool.Buffer) error {
	kind, to, err := msg.PeekHeader(wb.B)
	if err != nil {
		wb.Release()
		return err
	}
	if int(to) >= len(e.peers) || to < 0 {
		wb.Release()
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	msg.SetFrom(wb.B, e.node)
	e.net.stats.chargeEncoded(kind, len(wb.B), e.net.cost, e.node)
	if to == e.node {
		enc := append([]byte(nil), wb.B...)
		wb.Release()
		return e.net.stats.deliverBytes(e.q, e.node, enc)
	}
	return e.peers[to].q.putOwned(wb, ClassOf(kind))
}

// Flush implements Endpoint: fence every peer queue and wait until all
// messages enqueued before the call have been written to the sockets.
func (e *tcpEndpoint) Flush() error {
	fs := getFenceSet()
	defer fs.release()
	for _, p := range e.peers {
		if p == nil {
			continue // this node itself: nothing is ever queued
		}
		ch := getFence()
		if err := p.q.put(sendItem{fence: ch}); err != nil {
			// Queue already closed: nothing of ours remains unwritten
			// beyond what the shutdown drain handles. The fences already
			// enqueued are abandoned, not pooled — a writer may still
			// send into them.
			return err
		}
		fs.chans = append(fs.chans, ch)
	}
	var first error
	for _, ch := range fs.chans {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
		putFence(ch)
	}
	return first
}

func (e *tcpEndpoint) Recv() (*msg.Msg, error) {
	it, err := e.q.pop()
	return it.m, err
}

// writeLoop is one peer connection's writer: it drains whatever is
// queued and emits it as one vectored write, then satisfies any fences
// that were queued behind those messages. A write error is latched on
// the queue: the failed batch's messages are gone, so every later send
// or fence on this peer must fail loudly rather than let callers wait
// for replies that can never come.
func (e *tcpEndpoint) writeLoop(p *tcpPeer) {
	ws := &writeScratch{}
	for {
		items, ok := p.q.drain()
		if len(items) > 0 {
			err := p.q.err()
			if err == nil {
				if err = e.writeBatch(p, items, ws); err != nil {
					p.q.fail(err)
				}
			}
			// The batch is finished (written or failed): satisfy fences
			// and release owned buffers — this is the explicit release
			// point for pooled wire buffers handed over via SendOwned —
			// then recycle the batch's backing storage to the queue.
			for _, it := range items {
				if it.fence != nil {
					it.fence <- err
				}
				it.own.Release()
			}
			p.q.recycle(items)
		}
		if !ok {
			return
		}
	}
}

// writeBatch emits every message in items as frame envelopes — split
// only by the msg.MaxFrameMessages cap — issued to the socket as a
// single vectored write.
func (e *tcpEndpoint) writeBatch(p *tcpPeer, items []sendItem, ws *writeScratch) error {
	err := writeItems(p.conn, items, ws, e.net.stats)
	if err != nil && e.net.isClosed() {
		return ErrClosed
	}
	return err
}

// writeScratch is one writer goroutine's reusable frame-assembly
// storage: the frame headers/entry prefixes, the iovec list handed to
// net.Buffers.WriteTo, and the coalescing-accounting class list. Each
// drain rebuilds all three from [:0], so the capacities grow to the
// peer's steady batch shape once and every later drain assembles its
// vectored write with zero heap allocations.
type writeScratch struct {
	hdr    []byte
	bufs   net.Buffers
	shared []string
	// io is the consumable slice header handed to net.Buffers.WriteTo,
	// which advances it as bytes drain. WriteTo takes its receiver's
	// address through an interface, so calling it on a stack local
	// heap-escapes the header — one allocation per drain. Living here
	// (ws is allocated once per writer) the address is already on the
	// heap and the write is allocation-free.
	io net.Buffers
}

// writeItems is the outbound wire path shared by the loopback harness
// and the mesh: it lays the batch's messages out as frame envelopes —
// split only by the msg.MaxFrameMessages cap — and issues them to the
// connection as a single vectored write. Control words ride at the end
// of the same write (a drained batch never holds data queued after a
// goodbye: the queue closes right behind it, and a goodbye-ack's order
// against data is immaterial). A batch that holds at least one message
// is charged to st as one wire write — its frame count, and the traffic
// class of every message that shared a frame with another — BEFORE the
// bytes are issued: a peer can answer a request the moment the write
// lands, so a charge made after the write returned could still be
// missing when the caller, reply in hand, reads the counter.
func writeItems(conn net.Conn, items []sendItem, ws *writeScratch, st *Stats) error {
	hdr := ws.hdr[:0]
	bufs := ws.bufs[:0]
	shared := ws.shared[:0]
	count, ctrls := 0, 0
	for _, it := range items {
		if it.enc != nil {
			count++
		} else if it.ctrl != 0 {
			ctrls++
		}
	}
	if count == 0 && ctrls == 0 {
		return nil
	}
	if count == 0 {
		for _, it := range items {
			if it.ctrl != 0 {
				hdr = binary.BigEndian.AppendUint32(hdr, it.ctrl)
			}
		}
		ws.hdr = hdr
		_, err := conn.Write(hdr)
		return err
	}

	// Lay the frames out. Each frame contributes [4B outer length]
	// [4B message count], then per message [uvarint length][bytes]; the
	// headers and prefixes live in hdr and the message bytes are
	// referenced in place, so the whole batch goes out without copying
	// payloads.
	frames := (count + msg.MaxFrameMessages - 1) / msg.MaxFrameMessages
	i := 0
	for f := 0; f < frames; f++ {
		k := count - f*msg.MaxFrameMessages
		if k > msg.MaxFrameMessages {
			k = msg.MaxFrameMessages
		}
		// Outer length = frame header + per-message prefixes + bodies.
		frameLen := 4
		j := i
		for n := 0; n < k; n++ {
			for items[j].enc == nil {
				j++
			}
			frameLen += uvarintLen(len(items[j].enc)) + len(items[j].enc)
			j++
		}
		mark := len(hdr)
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(frameLen))
		hdr = msg.AppendFrameHeader(hdr, k)
		bufs = append(bufs, hdr[mark:])
		for n := 0; n < k; n++ {
			for items[i].enc == nil {
				i++
			}
			mark = len(hdr)
			hdr = msg.AppendEntryPrefix(hdr, len(items[i].enc))
			bufs = append(bufs, hdr[mark:], items[i].enc)
			if k > 1 {
				shared = append(shared, items[i].class)
			}
			i++
		}
	}

	if ctrls > 0 {
		mark := len(hdr)
		for _, it := range items {
			if it.ctrl != 0 {
				hdr = binary.BigEndian.AppendUint32(hdr, it.ctrl)
			}
		}
		bufs = append(bufs, hdr[mark:])
	}

	// Store the grown slices back BEFORE the write: WriteTo consumes the
	// list it is given (advancing both the slice and its elements as
	// bytes drain), so it gets its own header over the same backing
	// array while ws keeps the full-capacity storage for the next drain.
	ws.hdr = hdr
	ws.bufs = bufs
	ws.shared = shared
	ws.io = bufs
	// One wire.writes tick per WriteTo. That is one write *operation*;
	// the OS may split very large iovec lists (IOV_MAX) into a few
	// syscalls, which this counter deliberately does not model — it
	// measures the coalescing, not the kernel's chunking.
	st.chargeWire(frames, shared)
	_, err := ws.io.WriteTo(conn)
	return err
}

func (tn *TCPNetwork) isClosed() bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.closed
}

// uvarintLen returns the encoded size of n as a uvarint.
func uvarintLen(n int) int {
	l := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		l++
	}
	return l
}

// sendItem is one unit in a peer's send queue: a marshalled message, a
// fence awaiting write completion of everything queued before it, or a
// control word (the mesh goodbye vocabulary) emitted verbatim as a
// 4-byte length word outside the frame space.
type sendItem struct {
	enc   []byte          // marshalled message; nil for a fence or control word
	own   *bufpool.Buffer // pooled buffer backing enc (SendOwned); released by the writer
	class string          // traffic class, for coalescing accounting
	fence chan error
	ctrl  uint32 // control word (> maxFrameLen); 0 for messages/fences
}

// sendQueue is the bounded MPSC queue feeding one peer connection's
// writer goroutine.
type sendQueue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	items    []sendItem
	free     []sendItem // writer-recycled batch storage; next drain's items
	queued   int        // message items only; fences are exempt from the bound
	limit    int
	closed   bool
	failed   error       // latched first write error; the peer is dead
	rejected error       // soft latch: new puts fail, queued items still drain (peer departed)
	held     bool        // test hook: writer pauses so tests can stage a batch
	onStall  func(int64) // backpressure accounting: ns a put spent blocked
}

func newSendQueue(limit int, onStall func(int64)) *sendQueue {
	q := &sendQueue{limit: limit, onStall: onStall}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// put appends an item, blocking while the queue is at its bound. A
// sender blocked here when the queue closes is woken with ErrClosed; a
// latched write error fails the send immediately (the peer is dead and
// the writer only discards). Time spent blocked is reported through
// onStall (the wire.queue_stall counters) so saturated peers show up
// in benchmark output rather than as silent latency.
func (q *sendQueue) put(it sendItem) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it.enc != nil && q.queued >= q.limit && !q.closed && q.failed == nil && q.rejected == nil {
		start := time.Now()
		for it.enc != nil && q.queued >= q.limit && !q.closed && q.failed == nil && q.rejected == nil {
			q.notFull.Wait()
		}
		if q.onStall != nil {
			q.onStall(time.Since(start).Nanoseconds())
		}
	}
	if q.closed {
		return ErrClosed
	}
	if q.failed != nil {
		return q.failed
	}
	if q.rejected != nil && it.ctrl == 0 {
		// Control words bypass the soft latch: the goodbye-ack must
		// still drain to a peer whose departure set the latch.
		return q.rejected
	}
	q.items = append(q.items, it)
	if it.enc != nil {
		q.queued++
	}
	q.notEmpty.Signal()
	return nil
}

// putOwned queues a complete marshalled message held in a pooled
// buffer, taking ownership of it: the writer releases wb after the
// write that carries it, and a failed put releases it here.
func (q *sendQueue) putOwned(wb *bufpool.Buffer, class string) error {
	if err := q.put(sendItem{enc: wb.B, own: wb, class: class}); err != nil {
		wb.Release()
		return err
	}
	return nil
}

// drain removes and returns everything queued. It blocks while the
// queue is empty (or held by the test hook). ok=false means the queue
// is closed AND fully drained: the writer must exit after handling the
// returned items — already-queued messages still reach the wire, which
// is what makes shutdown deterministic.
func (q *sendQueue) drain() (items []sendItem, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for (len(q.items) == 0 || q.held) && !q.closed {
		q.notEmpty.Wait()
	}
	items = q.items
	// Double-buffer: senders append into the storage the writer recycled
	// from the previous batch while the writer processes this one, so
	// steady-state puts allocate nothing.
	q.items = q.free
	q.free = nil
	q.queued = 0
	q.notFull.Broadcast()
	return items, !q.closed || len(items) > 0
}

// recycle returns a drained batch's backing storage for reuse. The
// writer calls it only after the batch is fully processed — owners
// released, fences signalled — and never touches the slice again;
// clearing drops the buffer/channel references so recycled storage
// pins nothing.
func (q *sendQueue) recycle(items []sendItem) {
	if cap(items) == 0 {
		return
	}
	clear(items)
	q.mu.Lock()
	if q.free == nil {
		q.free = items[:0]
	}
	q.mu.Unlock()
}

func (q *sendQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// fail latches the first write error and wakes blocked senders so they
// observe it.
func (q *sendQueue) fail(err error) {
	q.mu.Lock()
	if q.failed == nil {
		q.failed = err
	}
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// reject soft-latches the queue: new puts fail with err, but items
// already queued (and the writer draining them) are unaffected — a
// departed peer still reads until its goodbye is acknowledged, so
// residual traffic may drain to it even though new sends must not
// start.
func (q *sendQueue) reject(err error) {
	q.mu.Lock()
	if q.rejected == nil {
		q.rejected = err
	}
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// clearFail lifts both latches after a successful reconnect: the pair
// has a fresh connection generation, so new sends may flow again.
// Nothing queued before the latch survives to be replayed — senders
// already observed their failures.
func (q *sendQueue) clearFail() {
	q.mu.Lock()
	q.failed = nil
	q.rejected = nil
	q.mu.Unlock()
}

// err returns the latched write error, if any.
func (q *sendQueue) err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// hold/release pause and resume the writer's draining (tests only).
func (q *sendQueue) hold() {
	q.mu.Lock()
	q.held = true
	q.mu.Unlock()
}

func (q *sendQueue) release() {
	q.mu.Lock()
	q.held = false
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}
