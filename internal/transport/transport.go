// Package transport provides the message-passing substrate the simulated
// cluster runs on. It replaces the paper's Ethernet-of-SUN-workstations:
// nodes share nothing and exchange only serialized messages, so every
// byte of coherence traffic crosses an explicit, counted boundary.
//
// Three implementations are provided, over two pipelines:
//
//   - ChanNetwork: in-process, one goroutine-safe queue per node. This is
//     the default substrate for experiments; it is deterministic-enough,
//     fast, and charges every message against a configurable cost model
//     (per-message latency + per-byte bandwidth) accumulated as modeled
//     network time rather than slept, so benchmarks stay fast.
//   - MeshNetwork: one node per OS process, connected by a Topology
//     (node ID → host:port). Lazy per-peer dialing with a versioned,
//     epoch-carrying hello handshake, one bidirectional connection per
//     pair (duplicate dials tie-broken deterministically by lower
//     dialer ID; stale-epoch dials rejected), and real failure
//     semantics with a two-sided vocabulary: a dead peer latches
//     errPeerDown into sends, fences, and — via PeerDownNotifier —
//     vkernel's pending-call table, while a peer that leaves cleanly
//     (goodbye handshake; Close/Leave) is marked departed
//     (errPeerGone, PeerGoneNotifier) with every in-flight frame
//     delivered first. An opt-in ReconnectPolicy revives latched pairs
//     on a fresh epoch. A member is its own node's Endpoint.
//   - TCPNetwork: n MeshNetwork members in one process, sharing one
//     Stats, with every pair connected once at construction over
//     loopback. The members never dial and say no goodbye; everything
//     else — writers, readers, latches, notifiers — is the mesh's, so
//     the code the in-process tests and benchmarks exercise is the code
//     a multi-process cluster runs. It measures the wire at syscall
//     granularity without a second process.
//
// # The writer pipeline
//
// Sending is asynchronous and coalescing. Every node pair shares one
// duplex connection, and each end of it has a writer goroutine fed
// from a bounded send queue and a reader goroutine feeding that node's
// receive queue: Send marshals the message into a pooled buffer and
// queues it without waiting (SendOwned queues a buffer the caller
// already marshalled into); the writer drains whatever has accumulated
// for that peer and emits it as one multi-message frame (see
// msg.EncodeFrame) through a single vectored write (net.Buffers). A
// batched protocol flush therefore costs O(1) write syscalls per
// destination no matter how many messages it carries — the same
// software-overhead amortization Munin's delayed-update queue performs
// at the protocol level, applied to the wire.
//
// Because a request and its reply cross the same socket in opposite
// directions, each carries the TCP acknowledgement of the other: one
// segment per message, where a one-way connection per direction costs
// a second, pure-ACK segment for every message. A reader accepts only
// what its end of the connection can receive — messages from that peer
// to this node — and counts anything else as wire.misrouted.
//
// Flush is the fence: it returns once everything the endpoint enqueued
// before the call has been written to the sockets. It deliberately does
// NOT imply remote processing; protocols that need the paper's
// ack-awaited flush semantics enqueue, fence, and then wait for replies
// (vkernel.Pending), which keeps the visibility guarantee while letting
// all destinations' traffic leave in coalesced frames. ChanNetwork
// implements the same interface trivially — its queue push already
// delivers whole batches instantly, so Flush is a no-op.
//
// Choosing a substrate: ChanNetwork for experiments, unit tests, and
// anything that wants modeled network costs without real latency;
// TCPNetwork when the measurement is about the wire itself (write
// syscalls, framing, coalescing — bench E11) or to validate against a
// real byte stream; MeshNetwork when nodes must be separately
// addressable processes or hosts (bench E12, `munin-bench -peers`).
//
// All three count messages and bytes per node and per traffic class, plus
// wire-level counters (wire.writes, wire.frames, wire.coalesced) that
// make the coalescing observable; the benchmark harness reads these
// counters to regenerate the paper's traffic comparisons.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"munin/internal/bufpool"
	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/stats"
)

// The failure taxonomy's errors are unexported: == or a type assertion
// stops matching once a layer wraps one, so other packages match them
// through IsClosed, PeerDownOf and PeerGoneOf, which see through it.

// errClosed is returned by operations on a closed endpoint or network.
var errClosed = errors.New("transport: closed")

// IsClosed reports whether err is, or wraps, the error of an operation
// on a closed endpoint or network.
func IsClosed(err error) bool { return errors.Is(err, errClosed) }

// errPeerDown reports that a peer's wire has failed: a dial could not
// be completed, a write error was latched on the peer's send queue, or
// an established connection died. Once latched, every later Send,
// Flush fence, and (through vkernel's pending-call table) every
// outstanding call aimed at that peer fails with this error instead of
// hanging until Close. Unwrap exposes the underlying network error.
type errPeerDown struct {
	// Node is the peer whose wire failed.
	Node msg.NodeID
	// Cause is the underlying dial/write/read error.
	Cause error
}

func (e *errPeerDown) Error() string {
	return fmt.Sprintf("transport: peer %d down: %v", e.Node, e.Cause)
}

func (e *errPeerDown) Unwrap() error { return e.Cause }

// PeerDownError returns the error a call to node fails with once node's
// wire has failed for cause. A layer that learns of a lost peer second
// hand reports the loss with it.
func PeerDownError(node msg.NodeID, cause error) error {
	return &errPeerDown{Node: node, Cause: cause}
}

// PeerDownOf reports whether err is, or wraps, a peer's wire failure,
// and which peer's.
func PeerDownOf(err error) (msg.NodeID, bool) {
	var e *errPeerDown
	if errors.As(err, &e) {
		return e.Node, true
	}
	return 0, false
}

// errPeerGone reports that a peer left the computation deliberately: it
// announced departure with a goodbye frame, drained everything it had
// already sent, and closed. Unlike a wire failure nothing was lost —
// every frame the peer put on the wire before the goodbye was delivered
// — but the peer will accept no new traffic, so later Sends and calls
// aimed at it fail with this error.
type errPeerGone struct {
	// Node is the peer that departed.
	Node msg.NodeID
}

func (e *errPeerGone) Error() string {
	return fmt.Sprintf("transport: peer %d departed", e.Node)
}

// PeerGoneOf reports whether err is, or wraps, a peer's clean departure,
// and which peer's.
func PeerGoneOf(err error) (msg.NodeID, bool) {
	var e *errPeerGone
	if errors.As(err, &e) {
		return e.Node, true
	}
	return 0, false
}

// PeerDownNotifier is implemented by transports that detect peer death
// (MeshNetwork, which is also each TCPNetwork node's endpoint). vkernel
// registers a callback on its node's endpoint at construction so a
// latched wire failure fails exactly the pending calls aimed at the
// dead peer.
type PeerDownNotifier interface {
	// OnPeerDown registers fn to be invoked (once per outage) when a
	// peer's wire is latched as failed. epoch identifies the connection
	// generation that died (see PeerEpochs) so subscribers can ignore a
	// stale notification that races a reconnect. fn runs on a transport
	// goroutine and must not block.
	OnPeerDown(fn func(peer msg.NodeID, epoch uint64, err error))
}

// PeerReconnectNotifier is implemented by transports that can revive
// a latched pair (MeshNetwork under a ReconnectPolicy). The callback
// fires once per successful rejoin — whichever side completes the
// epoch-bumped handshake — strictly before any frame from the new
// connection is delivered, so subscribers can rebuild protocol state
// for the returning peer ahead of its first message.
type PeerReconnectNotifier interface {
	// OnPeerReconnect registers fn to be invoked when a previously
	// latched peer's wire is re-established. epoch is the fresh
	// connection generation (always greater than the one that died).
	// fn runs on a transport goroutine and must not block.
	OnPeerReconnect(fn func(peer msg.NodeID, epoch uint64))
}

// PeerGoneNotifier is implemented by transports that distinguish a
// deliberate departure (goodbye frame) from wire death (MeshNetwork).
// The callback fires on the receiving endpoint's Recv path, strictly
// AFTER every frame the departed peer sent has been returned by Recv —
// that ordering is what lets vkernel fail only the calls whose replies
// truly never arrived, instead of racing an in-flight reply against
// the latch.
type PeerGoneNotifier interface {
	// OnPeerGone registers fn to be invoked (once per peer departure)
	// when a peer announces a clean goodbye. fn runs on the endpoint's
	// Recv goroutine and must not block.
	OnPeerGone(fn func(peer msg.NodeID, err error))
}

// Leaver is implemented by endpoints and networks that support a
// graceful departure from the computation (MeshNetwork): Leave
// announces a goodbye to every connected peer, drains everything
// already enqueued onto the wire, and waits (bounded) for the peers to
// confirm they consumed the drain. Peers mark the leaver departed
// (*errPeerGone for new sends) instead of latching it down, and no
// in-flight frame is lost.
type Leaver interface {
	// Leave announces departure and drains. Idempotent; Close implies
	// it on transports that implement both.
	Leave() error
}

// PeerEpochs is implemented by transports whose connections are
// versioned (MeshNetwork): every established connection generation for
// a pair carries an epoch number agreed in the handshake. Callers that
// record the epoch alongside a request can tell whether a later
// peer-down notification concerns their generation or a newer one.
type PeerEpochs interface {
	// PeerEpoch returns the current connection epoch for the pair
	// (self, peer); 0 means no connection has ever been established.
	PeerEpoch(peer msg.NodeID) uint64
}

// Endpoint is one node's attachment to the network.
//
// Sends are asynchronous: Send is a non-blocking enqueue onto the
// transport's outgoing path; on the TCP transports a per-peer writer goroutine
// coalesces everything queued for a peer into one wire frame and emits
// it with a single vectored write. Flush is the completion fence: it
// returns once every message this endpoint enqueued before the call
// has been handed to the wire, which is what lets a protocol enqueue a
// whole batched flush and then fence once.
type Endpoint interface {
	// Node returns the node this endpoint belongs to.
	Node() msg.NodeID
	// Send enqueues m for transmission to m.To. It does not wait for
	// the message to reach the wire (use Flush to fence); it may block
	// briefly on a full bounded send queue, and fails only if the
	// network is closed, the destination does not exist, or the peer's
	// wire previously failed. The message is serialized before Send
	// returns: the transport retains neither m nor m.Payload, so the
	// caller may reuse both at once.
	Send(m *msg.Msg) error
	// Flush blocks until every message enqueued by this endpoint
	// before the call has been written to the underlying wire. It does
	// NOT wait for delivery or processing at the receiver — protocols
	// that need acknowledgement wait for replies on top of this fence.
	Flush() error
	// Recv blocks until a message arrives or the endpoint is closed.
	//
	// The message is handed over, not lent: nothing else references
	// its Payload and the transport never reuses the bytes (chan: a
	// private Marshal per receiver, one copy per multicast member;
	// tcp/mesh: a fresh frame per wire read), so the receiver may keep
	// the message or any slice of its payload for as long as it likes
	// without copying. The payload aliases the wire frame it arrived
	// in, and a coalesced frame carries several messages: a retained
	// slice keeps that whole frame reachable, so long-lived state built
	// from a small payload is better copied out.
	Recv() (*msg.Msg, error)
}

// EncodedSender is the zero-copy variant of Endpoint.Send, implemented
// by the wire transports' endpoints (MeshNetwork, on its own or inside a
// TCPNetwork). The caller builds
// the complete marshalled message — msg.HeaderSize reserved bytes
// stamped with msg.FillHeader, payload behind them — directly in a
// pooled buffer and hands the buffer over.
//
// Ownership transfers unconditionally: whether the enqueue succeeds or
// fails, the transport is responsible for releasing wb (after the
// writer's vectored write completes on the success path). The caller
// must not touch wb or any slice aliasing wb.B after the call. The
// transport stamps the sender field itself (msg.SetFrom), exactly as
// Send stamps m.From.
type EncodedSender interface {
	SendOwned(wb *bufpool.Buffer) error
}

// Network connects a fixed set of nodes, 0..Nodes()-1.
type Network interface {
	// Endpoint returns node n's endpoint. The same Endpoint is
	// returned on every call.
	Endpoint(n msg.NodeID) Endpoint
	// Nodes returns the number of nodes.
	Nodes() int
	// Multicast delivers m to every member. Implementations that
	// model hardware multicast (ChanNetwork) charge it as a single
	// wire message; others fall back to unicast.
	Multicast(m *msg.Msg, members []msg.NodeID) error
	// Stats returns the network's traffic accounting.
	Stats() *Stats
	// Close shuts the network down; blocked Recv calls return errClosed.
	Close() error
}

// CostModel charges each message with a modeled cost. The default models
// a 10 Mbit/s Ethernet with 1 ms small-message latency — the class of
// network the paper's prototype targeted.
type CostModel struct {
	// LatencyNs is the fixed per-message cost in nanoseconds.
	LatencyNs int64
	// NsPerByte is the per-byte cost in nanoseconds
	// (10 Mbit/s = 1.25 MB/s ≈ 800 ns/byte).
	NsPerByte int64
}

// DefaultCostModel approximates the 1990 prototype network: 1 ms latency,
// 10 Mbit/s bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{LatencyNs: 1_000_000, NsPerByte: 800}
}

// Cost returns the modeled transmission time for a message of size bytes.
func (c CostModel) Cost(size int) int64 {
	return c.LatencyNs + c.NsPerByte*int64(size)
}

// Stats accumulates traffic accounting for a network.
type Stats struct {
	modeledNs atomic.Int64
	perNode   []nodeStats
	ctr       stats.Transport
	byName    stats.Set // ctr, by name
}

type nodeStats struct {
	sent, recvd, sentBytes atomic.Int64
}

func newStats(n int) *Stats {
	s := &Stats{perNode: make([]nodeStats, n)}
	s.byName.Bind(&s.ctr)
	return s
}

// Messages returns the total number of wire messages sent.
func (s *Stats) Messages() int64 { return sum(s.ctr.Msgs[:]) }

// Bytes returns the total number of wire bytes sent.
func (s *Stats) Bytes() int64 { return sum(s.ctr.Bytes[:]) }

func sum(cs []stats.Counter) (n int64) {
	for i := range cs {
		n += cs[i].Load()
	}
	return n
}

// ModeledNetworkNs returns the accumulated modeled network time in
// nanoseconds under the network's cost model.
func (s *Stats) ModeledNetworkNs() int64 { return s.modeledNs.Load() }

// NodeSent returns the number of messages node n has sent.
func (s *Stats) NodeSent(n msg.NodeID) int64 { return s.perNode[n].sent.Load() }

// NodeReceived returns the number of messages node n has received.
func (s *Stats) NodeReceived(n msg.NodeID) int64 { return s.perNode[n].recvd.Load() }

// NodeSentBytes returns the number of bytes node n has sent.
func (s *Stats) NodeSentBytes(n msg.NodeID) int64 { return s.perNode[n].sentBytes.Load() }

// ByClass returns a snapshot of the wire counters that are not zero:
// per-class (kind-range) message and byte counts and the wire.* counters.
func (s *Stats) ByClass() stats.Values { return s.byName.Snapshot() }

// Reset zeroes all counters. Callers must ensure the network is quiescent.
func (s *Stats) Reset() {
	s.modeledNs.Store(0)
	for i := range s.perNode {
		s.perNode[i].sent.Store(0)
		s.perNode[i].recvd.Store(0)
		s.perNode[i].sentBytes.Store(0)
	}
	s.byName.Reset()
}

// trafficClass indexes stats.TrafficClasses: control, lock, coherence,
// ivy, sync, app.
type trafficClass uint8

// classBases holds the first kind of each traffic class after control.
var classBases = [...]msg.Kind{msg.KindLockBase, msg.KindCohBase, msg.KindIvyBase, msg.KindSyncBase, msg.KindAppBase}

func classOf(k msg.Kind) trafficClass {
	c := 0
	for c < len(classBases) && k >= classBases[c] {
		c++
	}
	return trafficClass(c)
}

// ClassOf maps a message kind to a human-readable traffic class used in
// per-class accounting.
func ClassOf(k msg.Kind) string { return stats.TrafficClasses[classOf(k)] }

func (s *Stats) charge(m *msg.Msg, cost CostModel, from msg.NodeID) {
	s.chargeEncoded(m.Kind, m.WireSize(), cost, from)
}

// chargeEncoded is charge for an already-marshalled buffer: the caller
// supplies the kind and wire size from the header instead of a Msg.
func (s *Stats) chargeEncoded(kind msg.Kind, size int, cost CostModel, from msg.NodeID) {
	s.modeledNs.Add(cost.Cost(size))
	if int(from) < len(s.perNode) && from >= 0 {
		s.perNode[from].sent.Add(1)
		s.perNode[from].sentBytes.Add(int64(size))
	}
	c := classOf(kind)
	s.ctr.Msgs[c].Inc()
	s.ctr.Bytes[c].Add(int64(size))
}

// chargeWire records one coalesced wire emission: frames frame
// envelopes issued as a single write. sharedClasses holds the traffic
// class of every message that rode in a frame with at least one other
// message — the coalescing the batched flush is supposed to produce,
// counted per class so it stays observable.
func (s *Stats) chargeWire(frames int, sharedClasses []trafficClass) {
	s.ctr.Writes.Inc()
	s.ctr.Frames.Add(int64(frames))
	if len(sharedClasses) > 0 {
		s.ctr.Coalesced.Add(int64(len(sharedClasses)))
		for _, c := range sharedClasses {
			s.ctr.CoalescedBy[c].Inc()
		}
	}
}

// chargeStall records one Send blocked on a full peer send queue and
// how long it waited — the writer-side backpressure that makes
// saturated peers visible in benchmark output.
func (s *Stats) chargeStall(ns int64) {
	s.ctr.QueueStall.Inc()
	s.ctr.QueueStallNs.Add(ns)
}

// WireWrites returns the number of coalesced write operations issued to
// the underlying wire: one per vectored write on TCP, charged when the
// write is issued — so whoever holds a reply can count on the write
// that carried its request having been charged (the OS may split an
// enormous iovec list at IOV_MAX; that kernel-level chunking is not
// modeled) — and one per message on the chan transport, which has no
// wire to coalesce for.
func (s *Stats) WireWrites() int64 { return s.ctr.Writes.Load() }

// WireFrames returns the number of frame envelopes emitted.
func (s *Stats) WireFrames() int64 { return s.ctr.Frames.Load() }

// WireCoalesced returns the number of messages that shared a wire frame
// with at least one other message.
func (s *Stats) WireCoalesced() int64 { return s.ctr.Coalesced.Load() }

// WireDials returns the number of connection attempts the mesh
// transport made (lazy per-peer dialing; retries count individually).
func (s *Stats) WireDials() int64 { return s.ctr.Dials.Load() }

// WirePeerDown returns the number of peers whose wire has been latched
// as failed.
func (s *Stats) WirePeerDown() int64 { return s.ctr.PeerDown.Load() }

// WirePeerGone returns the number of peers that departed cleanly (a
// goodbye frame was received and their in-flight frames drained).
func (s *Stats) WirePeerGone() int64 { return s.ctr.PeerGone.Load() }

// WireReconnects returns the number of times a latched peer's wire was
// re-established under a reconnect policy (either side: an accepted
// rejoin dial from the peer, or this side's successful re-dial).
func (s *Stats) WireReconnects() int64 { return s.ctr.Reconnects.Load() }

// WireMisrouted returns the number of inbound frames whose destination
// header named some other node — dropped, but counted, so a topology
// misconfiguration shows up in the counter dump instead of as silence.
func (s *Stats) WireMisrouted() int64 { return s.ctr.Misrouted.Load() }

// WireQueueStalls returns how many Sends blocked on a full peer send
// queue (writer-side backpressure).
func (s *Stats) WireQueueStalls() int64 { return s.ctr.QueueStall.Load() }

// WireQueueStallNs returns the total nanoseconds Sends spent blocked on
// full peer send queues.
func (s *Stats) WireQueueStallNs() int64 { return s.ctr.QueueStallNs.Load() }

// ClassMessages returns the message count for one traffic class.
func (s *Stats) ClassMessages(class string) int64 { return s.byName.Get(class) }

func (s *Stats) delivered(to msg.NodeID) {
	if int(to) < len(s.perNode) && to >= 0 {
		s.perNode[to].recvd.Add(1)
	}
}

// String summarizes total traffic.
func (s *Stats) String() string {
	return fmt.Sprintf("msgs=%d bytes=%d modeled=%.3fms",
		s.Messages(), s.Bytes(), float64(s.ModeledNetworkNs())/1e6)
}

// Fence channel pooling. A flush fences every peer queue with a
// buffered chan error; allocating those per flush was a steady-state
// allocation on the hot path. The invariant that makes pooling safe:
// only a channel that has been RECEIVED from goes back to the pool (the
// writer's single send has completed and it holds no value). A fence
// abandoned on an error path is simply dropped — never pooled — so a
// stale writer send can never leak into a later flush.
var fencePool sync.Pool

func getFence() chan error {
	if v := fencePool.Get(); v != nil {
		return v.(chan error)
	}
	return make(chan error, 1)
}

func putFence(ch chan error) { fencePool.Put(ch) }

// fenceSet is pooled per-flush scratch: the fence channels awaiting
// receipt and (mesh only) the peer snapshot.
type fenceSet struct {
	chans []chan error
	peers []*meshPeer
}

var fenceSetPool sync.Pool

func getFenceSet() *fenceSet {
	if v := fenceSetPool.Get(); v != nil {
		return v.(*fenceSet)
	}
	return &fenceSet{}
}

// release returns the scratch (not the channels it references — those
// are pooled individually, and only after being received from).
func (fs *fenceSet) release() {
	clear(fs.chans)
	clear(fs.peers)
	fs.chans = fs.chans[:0]
	fs.peers = fs.peers[:0]
	fenceSetPool.Put(fs)
}

// recvItem is one unit in a receive queue: a decoded message, or —
// m == nil — a peer-departure marker the mesh enqueues behind the
// departed peer's last delivered frame, so consumers observe the
// departure strictly after everything the peer sent.
type recvItem struct {
	m    *msg.Msg
	peer msg.NodeID // departure marker only: the peer that said goodbye
}

// queue is an unbounded MPSC message queue with blocking receive. The
// live items are items[head:]: pop advances head instead of reslicing
// the front away, so the backing array survives a pop and the common
// ping-pong queue (zero or one item) never allocates after its first
// push.
type queue struct {
	mu     lockrank.Mutex[lockrank.RecvQueue]
	cond   *sync.Cond
	items  []recvItem
	head   int
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a received message. The queue's consumer becomes the
// only holder of m and of the buffer its payload aliases (see
// Endpoint.Recv).
func (q *queue) push(m *msg.Msg) error {
	return q.pushItem(recvItem{m: m})
}

// deliverBytes is delivery where there is no wire to cross — in
// process, or from a node to itself: the marshalled message, which the
// caller gives up (a private Marshal), is decoded onto node to's receive
// queue q and counted as received there.
func (s *Stats) deliverBytes(q *queue, to msg.NodeID, enc []byte) error {
	m, err := msg.Unmarshal(enc)
	if err != nil {
		return err
	}
	if err := q.push(m); err != nil {
		return err
	}
	s.delivered(to)
	return nil
}

// pushGone enqueues a departure marker for peer, ordered behind every
// frame already delivered.
func (q *queue) pushGone(peer msg.NodeID) error {
	return q.pushItem(recvItem{peer: peer})
}

func (q *queue) pushItem(it recvItem) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errClosed
	}
	if len(q.items) == cap(q.items) && q.head > len(q.items)/2 {
		// Full, and mostly popped slots: slide the live items down
		// instead of growing, so a queue that never runs empty stays
		// bounded by its backlog and not by its history.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	return nil
}

func (q *queue) pop() (recvItem, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return recvItem{}, errClosed
	}
	it := q.items[q.head]
	q.items[q.head] = recvItem{} // the slot must not keep the message reachable
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return it, nil
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
