package transport

// The wire under every MeshNetwork peer, in either shape: the send
// queue its writer drains, the frame layout, and the frame reader.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"munin/internal/bufpool"
	"munin/internal/lockrank"
	"munin/internal/msg"
)

// sendQueueDepth bounds each peer connection's send queue, in messages.
// Send blocks (backpressure) when the queue is full; fences never
// count against the bound.
const sendQueueDepth = 1024

// maxFrameLen bounds a frame envelope's outer length word. Length
// words above it are control words (the mesh goodbye vocabulary), so
// the two spaces can never collide on the wire.
const maxFrameLen = 1 << 30

// connectPair opens one loopback connection through ln and returns its
// two ends: it joins each pair of NewTCPNetwork's members. The dial
// completes against the listen backlog, so dialing and then accepting
// on one goroutine cannot deadlock. An accepted connection whose remote
// address is not the dialed end's local address belongs to some other
// process that found the port; it is closed and the accept repeated.
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

// frameReadBuf sizes a connection's read buffer so that a whole-object
// frame already in the socket — a 4 KB page plus headers — arrives in
// one read call. With bufio's default 4096 bytes such a frame took two
// reads before the one that finds the socket empty.
const frameReadBuf = 16 << 10

// readFrameStream is the inbound wire path: it reads length-prefixed
// frame envelopes from conn and invokes deliver for every contained message until the stream
// ends or a frame fails to decode. Every frame is read into a buffer of its
// own that nothing reuses, and each message is decoded exactly once,
// here: m's payload aliases that frame, and deliver takes m over (see
// Endpoint.Recv for what the consumer may then do with it).
//
// Length words above maxFrameLen are control words, not frames: ctrl is
// invoked with the word and decides whether the stream continues (the
// goodbye vocabulary rides here).
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
			if ctrl(n) {
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

// marshalPooled marshals m into a pooled wire buffer the caller owns.
func marshalPooled(m *msg.Msg) *bufpool.Buffer {
	wb := bufpool.Get(m.WireSize())
	wb.B = m.AppendMarshal(wb.B)
	return wb
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
	shared []trafficClass
	// io is the consumable slice header handed to net.Buffers.WriteTo,
	// which advances it as bytes drain. WriteTo takes its receiver's
	// address through an interface, so calling it on a stack local
	// heap-escapes the header — one allocation per drain. Living here
	// (ws is allocated once per writer) the address is already on the
	// heap and the write is allocation-free.
	io net.Buffers
}

// writeItems is the outbound wire path: it lays the batch's messages out as frame envelopes —
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
	// One wire.writes tick per WriteTo that carries a message. That is
	// one write *operation*; the OS may split very large iovec lists
	// (IOV_MAX) into a few syscalls, which this counter deliberately does
	// not model — it measures the coalescing, not the kernel's chunking.
	if count > 0 {
		st.chargeWire(frames, shared)
	}
	_, err := ws.io.WriteTo(conn)
	return err
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
	class trafficClass    // for coalescing accounting
	fence chan error
	ctrl  uint32 // control word (> maxFrameLen); 0 for messages/fences
}

// sendQueue is the bounded MPSC queue feeding one peer connection's
// writer goroutine.
type sendQueue struct {
	mu       lockrank.Mutex[lockrank.SendQueue]
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
// sender blocked here when the queue closes is woken with errClosed; a
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
		return errClosed
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
