// Package vkernel layers V-kernel-style communication primitives on the
// raw transport: blocking request/reply (Send-Receive-Reply in V
// terminology), one-way sends, and multicast to process groups.
//
// The paper's prototype used the V kernel for "high-speed communication
// between the different processors"; this package is that substrate.
// Every node runs one Kernel. Incoming messages are dispatched by message
// kind to registered handlers (a package registers its kinds as one
// table: HandleCalls, HandleSends), and a handler may itself issue Calls to
// other nodes (directory protocols need this: a home node invalidates
// the copy holders while the requester stays blocked) or pass the request
// on for another node to answer (Forward).
//
// What dispatch guarantees is what one goroutine per request would: a
// request starts running as soon as it is dispatched and is never queued
// behind another handler, so a handler blocked in a nested Call cannot
// starve the request that would unblock it; and handlers run
// concurrently, with no ordering between them, even for two requests
// from one sender. How it does it is cheaper: the dispatcher hands the
// request to a handler goroutine that is parked waiting for one, and
// only when none is parked starts a new goroutine. The first few
// goroutines started this way stay on as workers (they exit when the
// kernel closes); the rest run their one request and end. A warm worker
// keeps its stack, so the common request costs neither a goroutine
// creation nor regrowing a fresh stack through the handler chain.
// A request of a kind nobody handles, and a reply to a call that is no
// longer pending, are dropped and counted (drop.unhandled,
// drop.stray_reply).
//
// A call is completed by its sequence number alone: whichever node
// sends a reply carrying the caller's Seq answers it, whether or not the
// request was addressed to that node. Forward rests on this — the V
// kernel's Forward: a handler passes the request on to a third node and
// that node's Reply goes straight to the original caller, so data the
// third node holds reaches the caller without a detour through the
// forwarder. The forwarder gives up the duty to reply but may still do
// so (to refuse the call when the forward cannot be delivered); a second
// reply finds the call no longer pending and is counted
// drop.stray_reply. What fails a forwarded call is what fails any call —
// the death or departure of the node it was addressed to, the forwarder
// — because that is the only destination the caller's kernel knows; a
// forwarder that learns the third node is lost must answer the caller
// itself.
//
// Requests ride the transport's asynchronous writer pipeline: CallStart
// and MulticastCallStart enqueue without waiting for the wire, Flush
// fences everything enqueued so far, and Pending.Wait collects the
// replies — the shape a batched protocol flush uses to start every
// destination, fence once, and let all destinations' traffic leave in
// coalesced frames. The blocking Call/MulticastCall/CallInline forms
// are built on the same three steps.
//
// Messages change hands, they are not lent. On the way in, the
// transport hands Recv a message whose payload nothing else references
// or reuses (transport.Endpoint), so the dispatcher passes it to the
// handler or the waiting caller as it is: both may keep the message and
// any slice of its payload without copying. On the way out, Send, Call
// and Reply serialize the payload before they return (on the wire
// transports into a pooled buffer the writer releases), and
// CallStartOwned, ReplyOwned and SendOwned take a complete wire message
// the caller built in a pooled buffer — the payload is copied once per
// hop, by whoever encodes it.
//
// Every pending call records its destination set, each destination
// tagged with the connection epoch in force when the call started. On
// transports that detect peer death (transport.PeerDownNotifier — both
// wire transports), a latched wire failure fails exactly the
// pending calls aimed at the dead peer's generation with
// a peer-down error (transport.PeerDownOf) instead of leaving them blocked until Close;
// the epoch tag keeps a stale outage notification from killing calls
// started after a policy reconnect. A peer that departs cleanly
// (goodbye — transport.PeerGoneNotifier) fails its remaining pending
// calls with a peer-gone error (transport.PeerGoneOf), and only after every reply it
// actually sent has been dispatched, so an in-flight reply never loses
// a race to the latch. The kernel counts the failures as
// call.failed_peer / call.failed_gone (see Counters).
package vkernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"munin/internal/bufpool"
	"munin/internal/lockrank"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/transport"
)

// errClosed is returned by calls on a closed kernel.
var errClosed = errors.New("vkernel: closed")

// IsClosed reports whether err is, or wraps, the error of a call on a
// closed kernel.
func IsClosed(err error) bool { return errors.Is(err, errClosed) }

// Handler processes one incoming request. If the sender used Call, the
// handler must eventually invoke k.Reply(req, ...) exactly once.
type Handler func(k *Kernel, req *msg.Msg)

// Outcome is how a Call handler dealt with its request. A Call handler
// registered with HandleCalls returns one on every path, so a path that
// neither answers nor counts why it did not has nothing to return and
// does not compile.
type Outcome uint8

const (
	// Replied: the handler sent the reply (Reply, ReplyOwned).
	Replied Outcome = iota + 1
	// Forwarded: the request went on to a node whose reply answers the
	// caller (Forward).
	Forwarded
	// Parked: the request is kept and answered later, when what it
	// waits for happens (a lock grant, a barrier, a gate).
	Parked
	// Dropped: the request is never answered. The handler counted why
	// (a drop.* counter), or the node is shutting down and its callers
	// fail with it.
	Dropped
)

// HandleCalls registers calls[i] as the handler of kind lo+i: the Call
// half of a package's dispatch table, whose Call kinds fill
// [lo, lo+len(calls)). r is the receiver every handler is called on.
// It panics if a slot is empty — a kind declared without a handler.
func HandleCalls[R any](k *Kernel, lo msg.Kind, r R, calls []func(R, *msg.Msg) Outcome) {
	k.handleTable(lo, len(calls), func(i int) bool { return calls[i] != nil },
		func(_ *Kernel, req *msg.Msg) { calls[req.Kind-lo](r, req) })
}

// HandleSends is HandleCalls for the one-way half of a dispatch table:
// handlers of kinds sent with Send or Multicast, which answer nothing.
func HandleSends[R any](k *Kernel, lo msg.Kind, r R, sends []func(R, *msg.Msg)) {
	k.handleTable(lo, len(sends), func(i int) bool { return sends[i] != nil },
		func(_ *Kernel, req *msg.Msg) { sends[req.Kind-lo](r, req) })
}

// handleTable registers h for the n kinds from lo once filled reports
// every slot of the table behind h filled.
func (k *Kernel) handleTable(lo msg.Kind, n int, filled func(i int) bool, h Handler) {
	for i := 0; i < n; i++ {
		if !filled(i) {
			panic(fmt.Sprintf("vkernel: message kind %#x has no handler in its table", uint16(lo)+uint16(i)))
		}
	}
	k.Handle(lo, lo+msg.Kind(n-1), h)
}

// Kernel is one node's communication endpoint and dispatcher.
type Kernel struct {
	net    transport.Network
	ep     transport.Endpoint
	node   msg.NodeID
	epochs transport.PeerEpochs // nil when the transport is unversioned

	seq     atomic.Uint64
	mu      lockrank.Mutex[lockrank.Kernel]
	pending map[uint64]*Pending
	groups  map[int][]msg.NodeID
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup

	// work hands an inbound request from the dispatcher to a parked
	// handler goroutine. It is unbuffered on purpose: a request is
	// either taken at once by an idle worker or gets a goroutine of its
	// own, never queued.
	work chan request

	// ranges is the handler table, sorted by kind: Handle publishes a
	// fresh copy (under mu, which orders registrations), and the
	// dispatcher reads it without a lock — the table is frozen long
	// before traffic flows.
	ranges atomic.Pointer[[]handlerRange]

	// C names the kernel's counters (ctr) and the lock service's
	// (dlock binds them here).
	C   stats.Set
	ctr stats.Vkernel
}

type handlerRange struct {
	lo, hi msg.Kind // inclusive
	h      Handler
}

// Pending is an outstanding request started with Call, CallStart or
// MulticastCallStart — the caller's handle (Wait collects the replies)
// and the kernel's pending-call record in one allocation. want replies
// are expected; each arrives on ch. If inline is non-nil it runs on the
// dispatcher goroutine, before any later incoming message is dispatched.
//
// The fields below want are the dispatcher's, guarded by k.mu. dsts is
// the set of destinations whose replies are still outstanding — the
// record that lets a peer's wire death fail exactly the calls aimed at
// it (fail delivers the error to the waiter). deps holds, parallel to
// dsts, the connection epoch in force when the call started: a
// peer-down notification for epoch E fails only calls tagged <= E, so
// an outage report that races a reconnect cannot kill calls started on
// the fresh generation. Both slice the inline arrays unless the call
// has more than four destinations.
type Pending struct {
	k      *Kernel
	ch     chan *msg.Msg
	fail   chan error
	want   int
	inline func(*msg.Msg)

	got    int
	dsts   []msg.NodeID
	deps   []uint64
	dstArr [4]msg.NodeID
	depArr [4]uint64
}

// awaiting reports whether the call still expects a reply from node n,
// and drops one occurrence of n if so. Caller holds k.mu.
func (p *Pending) awaiting(n msg.NodeID, drop bool) bool {
	for i, d := range p.dsts {
		if d == n {
			if drop {
				last := len(p.dsts) - 1
				p.dsts[i] = p.dsts[last]
				p.dsts = p.dsts[:last]
				p.deps[i] = p.deps[last]
				p.deps = p.deps[:last]
			}
			return true
		}
	}
	return false
}

// awaitingEpoch reports whether the call still expects a reply from
// node n that was started at epoch <= e. Caller holds k.mu.
func (p *Pending) awaitingEpoch(n msg.NodeID, e uint64) bool {
	for i, d := range p.dsts {
		if d == n && p.deps[i] <= e {
			return true
		}
	}
	return false
}

// New creates and starts a kernel for node id on the given network —
// for an owner whose peers send nothing before it has registered its
// handlers (an in-process cluster: nothing runs until the caller that
// builds every node returns).
func New(net transport.Network, node msg.NodeID) *Kernel {
	k := NewUnstarted(net, node)
	k.Start()
	return k
}

// NewUnstarted creates a kernel that consumes nothing from its endpoint
// until Start: whatever peers send meanwhile waits in the receive
// queue. It is how a member of a multi-process cluster, whose peers are
// already running, gets to register every handler before the first
// request is dispatched — a request dispatched earlier would be dropped
// as unhandled and its caller, seeing a live peer, would park for good.
//
// If the node's endpoint reports peer death (transport.PeerDownNotifier),
// the kernel subscribes so pending calls aimed at a dead peer fail with
// a peer-down error (transport.PeerDownOf) instead of blocking until Close; if it reports
// clean departures (transport.PeerGoneNotifier), calls whose replies
// truly never arrived fail with a peer-gone error (transport.PeerGoneOf) — after every
// reply the peer did send has been dispatched. The endpoint, not the
// network, is asked because an in-process network holds every node and
// each node hears only its own latches.
func NewUnstarted(net transport.Network, node msg.NodeID) *Kernel {
	k := &Kernel{
		net:     net,
		ep:      net.Endpoint(node),
		node:    node,
		pending: make(map[uint64]*Pending),
		groups:  make(map[int][]msg.NodeID),
		done:    make(chan struct{}),
		work:    make(chan request),
	}
	k.C.Bind(&k.ctr)
	k.epochs, _ = net.(transport.PeerEpochs)
	if pn, ok := k.ep.(transport.PeerDownNotifier); ok {
		pn.OnPeerDown(k.peerDown)
	}
	if gn, ok := k.ep.(transport.PeerGoneNotifier); ok {
		gn.OnPeerGone(k.peerGone)
	}
	return k
}

// Start begins dispatching inbound messages. Call it once, after the
// last Handle, on a kernel built with NewUnstarted.
func (k *Kernel) Start() {
	k.wg.Add(1)
	go k.dispatchLoop()
}

// peerEpoch returns the current connection epoch for a destination (0
// on unversioned transports, where every call trivially matches every
// outage).
func (k *Kernel) peerEpoch(dst msg.NodeID) uint64 {
	if k.epochs == nil || dst == k.node {
		return 0
	}
	return k.epochs.PeerEpoch(dst)
}

// peerDown fails every pending call still awaiting a reply from the
// dead peer's generation (epoch tags <= the epoch that died; calls
// started after a reconnect carry a newer tag and survive a stale
// notification). A multicast call that has already collected some
// replies fails whole: its synchronization guarantee (every
// destination acknowledged) can no longer be met.
func (k *Kernel) peerDown(peer msg.NodeID, epoch uint64, err error) {
	k.failAwaiting(err, &k.ctr.CallFailedPeer, func(p *Pending) bool {
		return p.awaitingEpoch(peer, epoch)
	})
}

// peerGone fails every pending call still awaiting a reply from the
// departed peer. It runs on the dispatcher goroutine, strictly after
// every reply the peer sent before its goodbye was dispatched — so
// only calls whose replies genuinely never arrived are failed, which
// is the race the goodbye protocol exists to close.
func (k *Kernel) peerGone(peer msg.NodeID, err error) {
	k.failAwaiting(err, &k.ctr.CallFailedGone, func(p *Pending) bool {
		return p.awaiting(peer, false)
	})
}

func (k *Kernel) failAwaiting(err error, counter *stats.Counter, match func(*Pending) bool) {
	k.mu.Lock()
	var failed []*Pending
	for seq, p := range k.pending {
		if match(p) {
			failed = append(failed, p)
			delete(k.pending, seq)
		}
	}
	k.mu.Unlock()
	for _, p := range failed {
		counter.Inc()
		select {
		case p.fail <- err:
		default: // already failed (second peer died first)
		}
	}
}

// Node returns this kernel's node ID.
func (k *Kernel) Node() msg.NodeID { return k.node }

// Nodes returns the cluster size.
func (k *Kernel) Nodes() int { return k.net.Nodes() }

// Handle registers h for every message kind in [lo, hi]. Registration
// must happen before traffic for those kinds arrives; ranges must not
// overlap.
func (k *Kernel) Handle(lo, hi msg.Kind, h Handler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	var ranges []handlerRange
	if old := k.ranges.Load(); old != nil {
		ranges = append(ranges, *old...)
	}
	for _, r := range ranges {
		if lo <= r.hi && r.lo <= hi {
			panic(fmt.Sprintf("vkernel: handler range [%#x,%#x] overlaps [%#x,%#x]",
				uint16(lo), uint16(hi), uint16(r.lo), uint16(r.hi)))
		}
	}
	ranges = append(ranges, handlerRange{lo, hi, h})
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].lo < ranges[j].lo })
	k.ranges.Store(&ranges)
}

// DefineGroup registers a multicast group with the given member set.
// Groups are identified by small integers agreed on by all nodes.
func (k *Kernel) DefineGroup(id int, members []msg.NodeID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.groups[id] = append([]msg.NodeID(nil), members...)
}

// Group returns the members of a group defined with DefineGroup.
func (k *Kernel) Group(id int) []msg.NodeID {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]msg.NodeID(nil), k.groups[id]...)
}

// register allocates a correlation sequence and enters a pending-call
// record expecting one reply from each destination in dsts, each tagged
// with the destination's current connection epoch (see Pending.deps).
func (k *Kernel) register(inline func(*msg.Msg), dsts ...msg.NodeID) (uint64, *Pending, error) {
	p := &Pending{
		k:      k,
		ch:     make(chan *msg.Msg, len(dsts)),
		fail:   make(chan error, 1),
		want:   len(dsts),
		inline: inline,
	}
	p.dsts = append(p.dstArr[:0], dsts...)
	p.deps = p.depArr[:0]
	for _, d := range dsts {
		p.deps = append(p.deps, k.peerEpoch(d))
	}
	seq := k.seq.Add(1)
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return 0, nil, errClosed
	}
	k.pending[seq] = p
	k.mu.Unlock()
	return seq, p, nil
}

func (k *Kernel) unregister(seq uint64) {
	k.mu.Lock()
	delete(k.pending, seq)
	k.mu.Unlock()
}

// Wait blocks until every expected reply has arrived and returns them
// in arrival order. Waiting on a nil Pending (a multicast that had no
// remote members) returns immediately.
//
// A request aimed at a peer whose wire dies — the dial failed, a write
// was lost, or the established connection broke — has no reply coming;
// on transports that detect peer death (the mesh), Wait returns
// a peer-down error (transport.PeerDownOf) for it promptly instead of blocking until the
// kernel closes. A request whose peer departs cleanly (goodbye) fails
// with a peer-gone error (transport.PeerGoneOf), but only after every reply the peer
// actually sent has been dispatched — an in-flight reply always wins
// over the departure. On the loopback transports a connection only
// dies at shutdown, where Close unblocks every waiter with errClosed.
func (p *Pending) Wait() ([]*msg.Msg, error) {
	lockrank.Blocking()
	if p == nil || p.want == 0 {
		return nil, nil
	}
	replies := make([]*msg.Msg, 0, p.want)
	for len(replies) < p.want {
		reply, err := p.next()
		if err != nil {
			return replies, err
		}
		replies = append(replies, reply)
	}
	return replies, nil
}

// next blocks until one more reply arrives or the call fails (see Wait).
func (p *Pending) next() (*msg.Msg, error) {
	select {
	case reply := <-p.ch:
		return reply, nil
	case err := <-p.fail:
		return nil, err
	case <-p.k.done:
		return nil, errClosed
	}
}

// CallStart enqueues a request to dst on the transport's coalescing
// writer and returns without waiting — neither for the wire nor for the
// reply. Batched protocol emissions start every destination's request
// this way, Flush once so everything leaves in coalesced frames, and
// then Wait each Pending; distinct destinations thus overlap without
// one goroutine per destination.
func (k *Kernel) CallStart(dst msg.NodeID, kind msg.Kind, payload []byte) (*Pending, error) {
	return k.callStart(dst, kind, payload, nil)
}

func (k *Kernel) callStart(dst msg.NodeID, kind msg.Kind, payload []byte, inline func(*msg.Msg)) (*Pending, error) {
	seq, p, err := k.register(inline, dst)
	if err != nil {
		return nil, err
	}
	m := &msg.Msg{Kind: kind, To: dst, Seq: seq, Payload: payload}
	if err := k.ep.Send(m); err != nil {
		k.unregister(seq)
		return nil, err
	}
	return p, nil
}

// NewWire starts a complete wire message in a pooled buffer sized for
// exactly payload bytes: header space reserved, b appending behind it.
// The caller writes the payload through b, stores b.Bytes() back into
// wb.B and hands wb to CallStartOwned, ReplyOwned or SendOwned, which
// stamp the header in place. A handler that ships object bytes does
// this under the object lock it already holds, so the bytes are copied
// once — object to wire buffer — with no snapshot in between.
func NewWire(payload int) (wb *bufpool.Buffer, b msg.Builder) {
	wb = bufpool.Get(msg.HeaderSize + payload)
	b.Reset(wb.B)
	b.Skip(msg.HeaderSize)
	return wb, b
}

// CallStartOwned is CallStart for a request already marshalled into a
// pooled wire buffer: wb.B must hold msg.HeaderSize reserved bytes
// followed by the complete payload (NewWire). The kernel
// assigns the correlation sequence, stamps the header in place
// (msg.FillHeader), and hands the buffer to the transport's zero-copy
// enqueue (transport.EncodedSender) — no Marshal copy on the wire
// transports. Ownership of wb transfers unconditionally: whatever the
// outcome, the caller must not touch wb afterwards.
func (k *Kernel) CallStartOwned(dst msg.NodeID, kind msg.Kind, wb *bufpool.Buffer) (*Pending, error) {
	seq, p, err := k.register(nil, dst)
	if err != nil {
		wb.Release()
		return nil, err
	}
	msg.FillHeader(wb.B, kind, 0, k.node, dst, seq)
	if err := k.sendOwned(wb); err != nil {
		k.unregister(seq)
		return nil, err
	}
	return p, nil
}

// sendOwned hands a complete, header-stamped wire buffer to the
// transport, which releases it on every path. The chan transport has
// no wire to hand a buffer to: its Send serializes the message before
// returning (transport.Endpoint), so the buffer is released right
// behind it.
func (k *Kernel) sendOwned(wb *bufpool.Buffer) error {
	if es, ok := k.ep.(transport.EncodedSender); ok {
		return es.SendOwned(wb)
	}
	defer wb.Release()
	m, err := msg.Unmarshal(wb.B)
	if err != nil {
		return err
	}
	return k.ep.Send(m)
}

// Call sends a request to dst and blocks until the reply arrives. It is
// the V kernel's Send: the caller is suspended until the receiver
// replies.
func (k *Kernel) Call(dst msg.NodeID, kind msg.Kind, payload []byte) (*msg.Msg, error) {
	lockrank.Blocking()
	p, err := k.CallStart(dst, kind, payload)
	if err != nil {
		return nil, err
	}
	return p.next()
}

// CallInline is Call with a twist needed by coherence protocols: fn is
// executed on the dispatcher goroutine the moment the reply arrives,
// strictly before any message that the peer sent afterwards is
// dispatched. A protocol can therefore install an ownership grant and
// be certain no later fetch or invalidation for the same object can
// observe the pre-install state. fn must be short and must not block on
// network operations. CallInline returns after fn has run.
func (k *Kernel) CallInline(dst msg.NodeID, kind msg.Kind, payload []byte, fn func(*msg.Msg)) error {
	lockrank.Blocking()
	p, err := k.callStart(dst, kind, payload, fn)
	if err != nil {
		return err
	}
	_, err = p.next()
	return err
}

// MulticastCallStart enqueues one multicast request to every member
// (excluding this node) and returns a Pending that collects the
// members' replies. Like CallStart it does not wait for the wire: on
// TCP each member's copy coalesces with whatever else is bound for that
// peer. A nil Pending (with nil error) means no remote members.
func (k *Kernel) MulticastCallStart(members []msg.NodeID, kind msg.Kind, payload []byte) (*Pending, error) {
	dst := make([]msg.NodeID, 0, len(members))
	for _, n := range members {
		if n != k.node {
			dst = append(dst, n)
		}
	}
	if len(dst) == 0 {
		return nil, nil
	}
	seq, p, err := k.register(nil, dst...)
	if err != nil {
		return nil, err
	}
	m := &msg.Msg{Kind: kind, From: k.node, Seq: seq, Payload: payload}
	if err := k.net.Multicast(m, dst); err != nil {
		k.unregister(seq)
		return nil, err
	}
	return p, nil
}

// MulticastCall sends one multicast message to every member (excluding
// this node) and blocks until each member has replied. It returns the
// replies in arrival order. This is the acknowledged update multicast
// the coherence protocols use: a delayed-update flush does not return
// until every copy holder has installed the update, so synchronization
// that follows the flush is guaranteed to make the updates visible.
func (k *Kernel) MulticastCall(members []msg.NodeID, kind msg.Kind, payload []byte) ([]*msg.Msg, error) {
	lockrank.Blocking()
	p, err := k.MulticastCallStart(members, kind, payload)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Forward passes req, a request this node is handling, on to dst as a
// request of the given kind and payload, in place of replying to it.
// dst's handler sees the original caller in req.From and the caller's
// sequence number in req.Seq, so its Reply completes the caller's call
// directly (see the package comment for who may answer a Seq). Forward
// enqueues and returns like Send; it registers nothing, because the
// caller, not this node, awaits the reply. An error means the request
// never left — the caller is still this node's to answer.
func (k *Kernel) Forward(req *msg.Msg, dst msg.NodeID, kind msg.Kind, payload []byte) error {
	// The caller's ID rides in the payload: From must stay this node,
	// since a wire transport drops a frame whose From is not the
	// connection's peer.
	p := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(req.From))
	return k.ep.Send(&msg.Msg{
		Kind:    kind,
		Flags:   msg.FlagForward,
		To:      dst,
		Seq:     req.Seq,
		Payload: append(p, payload...),
	})
}

// Flush fences this node's outgoing pipeline: it returns once every
// message enqueued before the call has been written to the wire. It
// does not wait for replies — Pending.Wait does that.
func (k *Kernel) Flush() error {
	lockrank.Blocking()
	return k.ep.Flush()
}

// Reply sends a reply to a request received via a handler.
func (k *Kernel) Reply(req *msg.Msg, payload []byte) error {
	m := &msg.Msg{
		Kind:    req.Kind,
		Flags:   msg.FlagReply,
		To:      req.From,
		Seq:     req.Seq,
		Payload: payload,
	}
	return k.ep.Send(m)
}

// ReplyOwned is Reply for a reply already marshalled into a pooled wire
// buffer (NewWire), the mirror of CallStartOwned: the kernel stamps the
// reply header in place and hands the buffer to the transport.
// Ownership of wb transfers unconditionally.
func (k *Kernel) ReplyOwned(req *msg.Msg, wb *bufpool.Buffer) error {
	msg.FillHeader(wb.B, req.Kind, msg.FlagReply, k.node, req.From, req.Seq)
	return k.sendOwned(wb)
}

// Send transmits a one-way message (no reply expected).
func (k *Kernel) Send(dst msg.NodeID, kind msg.Kind, payload []byte) error {
	return k.ep.Send(&msg.Msg{Kind: kind, To: dst, Payload: payload})
}

// SendOwned is Send for a message already marshalled into a pooled
// wire buffer (NewWire). Ownership of wb transfers unconditionally.
func (k *Kernel) SendOwned(dst msg.NodeID, kind msg.Kind, wb *bufpool.Buffer) error {
	msg.FillHeader(wb.B, kind, 0, k.node, dst, 0)
	return k.sendOwned(wb)
}

// Multicast sends a one-way message to every member of group id,
// excluding this node if present. The transport decides whether this
// costs one wire message (hardware multicast) or one per member.
func (k *Kernel) Multicast(group int, kind msg.Kind, payload []byte) error {
	members := k.Group(group)
	return k.MulticastTo(members, kind, payload)
}

// MulticastTo sends a one-way message to an explicit member set,
// excluding this node if present.
func (k *Kernel) MulticastTo(members []msg.NodeID, kind msg.Kind, payload []byte) error {
	dst := make([]msg.NodeID, 0, len(members))
	for _, n := range members {
		if n != k.node {
			dst = append(dst, n)
		}
	}
	if len(dst) == 0 {
		return nil
	}
	m := &msg.Msg{Kind: kind, From: k.node, Payload: payload}
	return k.net.Multicast(m, dst)
}

// Close shuts the kernel down. Pending Calls fail with errClosed.
func (k *Kernel) Close() {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	close(k.done)
	k.mu.Unlock()
}

// Done returns a channel that is closed when the kernel closes. A
// thread that waits for something other than a reply — a barrier
// arrival parked at its own node — selects on it, so that it fails
// with Err when the node closes instead of blocking for ever.
func (k *Kernel) Done() <-chan struct{} { return k.done }

// Err returns the error calls fail with once the kernel has closed
// (IsClosed reports it), and nil while it is open.
func (k *Kernel) Err() error {
	select {
	case <-k.done:
		return errClosed
	default:
		return nil
	}
}

// Wait blocks until the dispatch loop has exited (after the underlying
// network is closed).
func (k *Kernel) Wait() { k.wg.Wait() }

func (k *Kernel) dispatchLoop() {
	defer k.wg.Done()
	workers := 0 // handler goroutines started with stay set
	for {
		m, err := k.ep.Recv()
		if err != nil {
			// Network closed: fail all pending calls.
			k.Close()
			return
		}
		if m.IsReply() {
			k.mu.Lock()
			p, ok := k.pending[m.Seq]
			if ok {
				p.got++
				// This destination has answered: a later wire death of
				// that peer no longer concerns this call.
				p.awaiting(m.From, true)
				if p.got >= p.want {
					delete(k.pending, m.Seq)
				}
			}
			k.mu.Unlock()
			if ok {
				// m is ours to pass on: Recv hands over a message whose
				// payload nothing else references or reuses.
				if p.inline != nil {
					// Run before dispatching anything the peer sent
					// later (see CallInline).
					p.inline(m)
				}
				p.ch <- m
			} else {
				// Late: the call failed or the kernel closed it.
				k.ctr.DropStrayReply.Inc()
			}
			continue
		}
		h := k.lookup(m.Kind)
		if h != nil && m.Flags&msg.FlagForward != 0 && !k.unwrapForward(m) {
			h = nil // a forward that names no caller: nothing could answer it
		}
		if h == nil {
			// Nobody to hand it to: drop, like an unbound port.
			k.ctr.DropUnhandled.Inc()
			continue
		}
		// Hand the request to a parked worker if one is waiting; the
		// send succeeds only when a worker is already blocked in its
		// receive. Otherwise start a goroutine for it, so a request
		// never waits behind another handler (see the package comment).
		r := request{h, m}
		select {
		case k.work <- r:
		default:
			stay := workers < handlerWorkers
			if stay {
				workers++
			}
			k.wg.Add(1)
			go k.serve(r, stay)
		}
	}
}

// unwrapForward turns a forwarded request (Forward) into the request its
// handler answers: From becomes the original caller, whose ID leads the
// payload. It reports false for a frame that names no node of this
// cluster.
func (k *Kernel) unwrapForward(m *msg.Msg) bool {
	if len(m.Payload) < 4 {
		return false
	}
	caller := msg.NodeID(binary.BigEndian.Uint32(m.Payload))
	if caller < 0 || int(caller) >= k.Nodes() {
		return false
	}
	m.From, m.Payload = caller, m.Payload[4:]
	return true
}

// request is one inbound request and the handler it was dispatched to.
// The handler owns m, payload included (see transport.Endpoint.Recv).
type request struct {
	h Handler
	m *msg.Msg
}

// handlerWorkers is how many handler goroutines stay on after their
// first request to take later ones. It only has to cover the handlers a
// node usually runs at once; a burst beyond it costs what every request
// used to cost, a goroutine of its own.
const handlerWorkers = 4

// serve runs one request's handler and, if stay is set, parks to take
// further requests from the dispatcher until the kernel closes. A
// worker keeps its stack, already grown through the handler chain, from
// one request to the next.
func (k *Kernel) serve(r request, stay bool) {
	defer k.wg.Done()
	r.h(k, r.m)
	for stay {
		select {
		case r = <-k.work:
			r.h(k, r.m)
		case <-k.done:
			return
		}
	}
}

func (k *Kernel) lookup(kind msg.Kind) Handler {
	p := k.ranges.Load()
	if p == nil {
		return nil
	}
	ranges := *p
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].hi >= kind })
	if i < len(ranges) && ranges[i].lo <= kind {
		return ranges[i].h
	}
	return nil
}
