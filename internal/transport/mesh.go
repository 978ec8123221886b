package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"munin/internal/bufpool"
	"munin/internal/lockrank"
	"munin/internal/msg"
)

// Mesh connect handshake. Every connection opens with a fixed-size
// hello frame — magic, protocol version, the dialer's node ID, and the
// connection epoch the dialer proposes for the pair — and the acceptor
// answers with an accept/reject byte, followed (on accept) by the
// epoch it agreed to. The hello is what makes connections attributable
// (the acceptor learns who is on the other end before any traffic
// flows); the version field is what lets a future frame-format change
// fail loudly instead of desyncing the stream; and the epoch is what
// versions the pair's connection generations, so a stale dial left
// over from a replaced stream cannot resurrect or re-latch the pair
// after a reconnect.
const (
	meshMagic        = "MUNm"
	meshProtoVersion = 2
	helloLen         = 4 + 2 + 4 + 8 // magic + version + node ID + epoch
	helloAccept      = 1
	helloReject      = 0
	helloAcceptLen   = 1 + 8 // verdict byte + agreed epoch
)

// Control words: 4-byte length words outside the frame space (above
// the 1<<30 frame-length cap), carried in-order on the same stream as
// data frames. They are the goodbye vocabulary: a departing node
// drains its send queues, emits ctrlGoodbye as the last bytes it will
// ever send on the connection, and waits (bounded) for ctrlGoodbyeAck
// — proof the peer's reader consumed everything up to and including
// the goodbye, so no in-flight frame can lose a race against the
// peer-down latch.
const (
	ctrlGoodbye    = 0xFFFFFF01
	ctrlGoodbyeAck = 0xFFFFFF02
)

// Dial/handshake tuning. Dials retry briefly (a peer process may be a
// beat behind in binding its listener); once the retries are exhausted
// the peer is latched down.
const (
	meshDialAttempts     = 4
	meshDialBackoff      = 50 * time.Millisecond
	meshDialTimeout      = 1 * time.Second
	meshHandshakeTimeout = 2 * time.Second
	// meshInboundWait bounds how long a dialer whose handshake was
	// rejected (it lost the duplicate-connection tiebreak) waits for
	// the winning inbound connection to be installed.
	meshInboundWait = 2 * time.Second
	// meshCloseDrain bounds the graceful-shutdown waits: the write
	// drain budget, the goodbye-ack wait, and the reader teardown.
	meshCloseDrain = 2 * time.Second
	// meshReconnectBackoff is the default initial delay between
	// background re-dial attempts (ReconnectPolicy.Backoff overrides).
	meshReconnectBackoff = 50 * time.Millisecond
)

func encodeHello(self msg.NodeID, epoch uint64) []byte {
	b := make([]byte, 0, helloLen)
	b = append(b, meshMagic...)
	b = binary.BigEndian.AppendUint16(b, meshProtoVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(self))
	b = binary.BigEndian.AppendUint64(b, epoch)
	return b
}

// MeshNetwork is the multi-process transport: one Network per OS
// process, holding exactly one usable endpoint (the topology's self
// node) and reaching every other node over real TCP connections at the
// addresses the Topology names. Each peer has a bounded send queue
// drained by a coalescing writer and, once connected, a reader; the
// connection lifecycle around them is lazy dialing with a hello
// handshake, and wire death latches an errPeerDown. TCPNetwork runs n
// members of this type in one process, pre-connected and never dialing
// (see newMember).
//
// Connections are bidirectional and one per node pair: whichever side
// needs to send first dials, and the acceptor attributes the
// connection from the hello frame. If both sides dial at once the
// duplicate is resolved deterministically — the connection dialed by
// the lower node ID survives, the other is closed — so the pair always
// converges on a single stream with no configuration-order dependence.
// Every established generation of a pair's connection carries an epoch
// agreed in the handshake; a hello proposing an older epoch than the
// pair's current generation is a stale dial and is rejected.
//
// Failure comes in two distinct flavors:
//
//   - Wire death: a dial fails (after brief retries), a write errors,
//     or an established connection's read side dies. The peer is
//     latched DOWN — later Sends fail fast with *errPeerDown, queued
//     fences observe it, and OnPeerDown callbacks fire once per outage
//     with the epoch that died. Without a reconnect policy the latch
//     is permanent; with Topology.Reconnect enabled the mesh re-dials
//     in the background and accepts rejoin dials from the peer, and a
//     successful handshake clears the latch on a fresh epoch (counter
//     wire.reconnects), replaying nothing.
//   - Departure: the peer announced a goodbye and drained. The peer is
//     marked GONE, not down — every frame it sent is still delivered,
//     and only then do OnPeerGone callbacks fire; new Sends fail with
//     *errPeerGone. No OnPeerDown fires and nothing was lost.
type MeshNetwork struct {
	topo  Topology
	stats *Stats
	cost  CostModel
	ln    net.Listener // nil for an in-process member, which never accepts
	q     *queue       // receive side: the member is its node's Endpoint

	mu        lockrank.Mutex[lockrank.MeshNetwork]
	peers     map[msg.NodeID]*meshPeer
	conns     map[net.Conn]struct{} // every installed connection, for Close's teardown sweep
	listeners []peerListener        // append-only: notify ranges over it unlocked
	closed    bool

	closeCh   chan struct{} // closed when Leave/Close begins; wakes reconnect loops
	leaveOnce sync.Once
	closeOnce sync.Once

	wg       sync.WaitGroup // accept loop + per-connection readers
	writerWG sync.WaitGroup // per-peer writer goroutines
	reconnWG sync.WaitGroup // background reconnect loops
}

// NewMeshNetwork binds the topology's self address and starts the
// accept loop. No peer connections are opened yet — dialing is lazy,
// triggered by the first Send to each peer.
func NewMeshNetwork(topo Topology, cost CostModel) (*MeshNetwork, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", topo.Addr(topo.Self))
	if err != nil {
		return nil, fmt.Errorf("transport: mesh listen %s: %w", topo.Addr(topo.Self), err)
	}
	m := newMember(topo, newStats(topo.Nodes()), cost, ln)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.handleInbound(conn)
			}()
		}
	}()
	return m, nil
}

// newMember builds a member around its listener and the stats it
// charges. An in-process member (TCPNetwork) has no listener and shares
// its stats with the other nodes; its connections arrive through
// attach, so it never dials or accepts.
func newMember(topo Topology, st *Stats, cost CostModel, ln net.Listener) *MeshNetwork {
	return &MeshNetwork{
		topo:    topo,
		stats:   st,
		cost:    cost,
		ln:      ln,
		q:       newQueue(),
		peers:   make(map[msg.NodeID]*meshPeer),
		conns:   make(map[net.Conn]struct{}),
		closeCh: make(chan struct{}),
	}
}

// attach installs conn, an end of a connection made in this process, as
// the connection to peer at epoch 1 (see TCPNetwork).
func (m *MeshNetwork) attach(peer, dialer msg.NodeID, conn net.Conn) {
	p := m.peer(peer)
	m.registerConn(conn)
	p.mu.Lock()
	m.install(p, conn, dialer, 1)
}

// Addr returns the address the mesh actually bound (useful when the
// topology named port 0).
func (m *MeshNetwork) Addr() string { return m.ln.Addr().String() }

// Endpoint implements Network: the member is its self node's endpoint.
// Only that endpoint exists in this process; asking for any other is a
// programming error.
func (m *MeshNetwork) Endpoint(n msg.NodeID) Endpoint {
	if n != m.topo.Self {
		panic(fmt.Sprintf("transport: mesh process for node %d has no endpoint for node %d",
			m.topo.Self, n))
	}
	return m
}

// Nodes implements Network.
func (m *MeshNetwork) Nodes() int { return m.topo.Nodes() }

// Stats implements Network. The accounting covers this member's
// traffic only — what it sends and receives — unless, in a TCPNetwork,
// every member charges the one Stats they share.
func (m *MeshNetwork) Stats() *Stats { return m.stats }

// Multicast falls back to unicast sends (no hardware multicast on TCP),
// each copy enqueued on its peer's coalescing writer: one wire message
// per member, the penalty the paper notes without multicast support.
func (m *MeshNetwork) Multicast(mm *msg.Msg, members []msg.NodeID) error {
	for _, dst := range members {
		cp := *mm
		cp.To = dst
		if err := m.Send(&cp); err != nil {
			return err
		}
	}
	return nil
}

// A peerListener is one OnPeerDown, OnPeerGone or OnPeerReconnect
// callback, called for the events of its kind.
type peerListener struct {
	on uint8 // peerDownEvent, peerGoneEvent or peerReconnectEvent
	fn func(peer msg.NodeID, epoch uint64, err error)
}

const (
	peerDownEvent uint8 = iota
	peerGoneEvent
	peerReconnectEvent
)

func (m *MeshNetwork) listen(on uint8, fn func(msg.NodeID, uint64, error)) {
	m.mu.Lock()
	m.listeners = append(m.listeners, peerListener{on, fn})
	m.mu.Unlock()
}

func (m *MeshNetwork) notify(on uint8, peer msg.NodeID, epoch uint64, err error) {
	m.mu.Lock()
	ls := m.listeners
	m.mu.Unlock()
	for _, l := range ls {
		if l.on == on {
			l.fn(peer, epoch, err)
		}
	}
}

// OnPeerDown implements PeerDownNotifier.
func (m *MeshNetwork) OnPeerDown(fn func(peer msg.NodeID, epoch uint64, err error)) {
	m.listen(peerDownEvent, fn)
}

// OnPeerGone implements PeerGoneNotifier. Callbacks run on the self
// endpoint's Recv path, after every frame the departed peer sent has
// been returned by Recv.
func (m *MeshNetwork) OnPeerGone(fn func(peer msg.NodeID, err error)) {
	m.listen(peerGoneEvent, func(peer msg.NodeID, _ uint64, err error) { fn(peer, err) })
}

// OnPeerReconnect implements PeerReconnectNotifier. Callbacks run on
// the transport goroutine that completed the rejoin handshake, before
// the new connection's reader starts, so subscribers finish rebuilding
// state ahead of the peer's first frame.
func (m *MeshNetwork) OnPeerReconnect(fn func(peer msg.NodeID, epoch uint64)) {
	m.listen(peerReconnectEvent, func(peer msg.NodeID, epoch uint64, _ error) { fn(peer, epoch) })
}

// PeerEpoch implements PeerEpochs: the current connection epoch agreed
// with the peer (0 before any connection is established).
func (m *MeshNetwork) PeerEpoch(peer msg.NodeID) uint64 {
	m.mu.Lock()
	p := m.peers[peer]
	m.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

func (m *MeshNetwork) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// registerConn records an about-to-be-installed connection for Close's
// teardown sweep. It refuses once the mesh is closing, so no reader
// can attach to a connection the sweep will never see — the installer
// must close the connection and back out.
func (m *MeshNetwork) registerConn(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[c] = struct{}{}
	return true
}

// unregisterConn drops a finished connection from the teardown
// registry. Without this the registry grows by one dead entry per
// rejected duplicate and — once a reconnect policy is in play — per
// replaced generation, pinning closed sockets for the mesh's life.
func (m *MeshNetwork) unregisterConn(c net.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// Leave announces this node's departure to every connected peer and
// drains: each live pair's writer flushes everything already queued,
// emits a goodbye as the last bytes this node will ever send, and
// Leave waits (bounded by meshCloseDrain) for the peers' goodbye-acks
// — proof their readers consumed the drain. Receivers mark this node
// departed, deliver every frame already on the wire, and fail only new
// sends with *errPeerGone; no peer-down latch fires anywhere. After
// Leave the endpoint accepts no new sends (they fail with errClosed);
// the receive side stays open until Close. Idempotent, and Close calls
// it first, so a bare Close is also a graceful goodbye.
func (m *MeshNetwork) Leave() error {
	m.leaveOnce.Do(m.doLeave)
	return nil
}

func (m *MeshNetwork) doLeave() {
	m.stop()
	// Once closed is set, registerConn refuses new installs, so this
	// set of connections is final.
	peers, conns := m.snapshot()

	// Give the write side a drain budget — a writer blocked in WriteTo
	// against a stalled peer (full send buffer, remote not reading)
	// would otherwise hang writerWG.Wait forever.
	for _, conn := range conns {
		conn.SetWriteDeadline(time.Now().Add(meshCloseDrain))
	}
	// Goodbye rides each live pair's send queue behind whatever is
	// already draining, and the queue closes right behind it: the
	// goodbye is guaranteed to be the last thing the writer emits. A
	// pair whose very first dial is still in flight has no established
	// connection to say goodbye on — it is torn down unannounced, and
	// the remote records wire death (the conservative outcome).
	var await []chan struct{}
	for _, p := range peers {
		p.mu.Lock()
		live := p.conn != nil && !p.down && !p.gone
		ack := p.ackCh
		p.mu.Unlock()
		if live && p.q.put(sendItem{ctrl: ctrlGoodbye}) == nil {
			await = append(await, ack)
		}
	}
	m.closeSends()
	m.writerWG.Wait()
	// Every goodbye is on the wire. Wait for each peer to confirm it
	// consumed the drain — its explicit goodbye-ack, or its own
	// goodbye (mutual departure), both close the ack channel. The
	// budget is shared: a crashed peer costs at most meshCloseDrain
	// total.
	deadline := time.NewTimer(meshCloseDrain)
	defer deadline.Stop()
	for _, ack := range await {
		select {
		case <-ack:
		case <-deadline.C:
			return // budget exhausted; stragglers get the EOF path
		}
	}
}

// Close quiesces the mesh gracefully: Leave first (goodbye, drain,
// ack-wait — see Leave), then teardown — write sides shut down so
// remote readers get a clean EOF, local readers are torn down (bounded
// by meshCloseDrain if the remote side lingers) and the receive queue
// reports errClosed.
func (m *MeshNetwork) Close() error {
	m.Leave()
	m.closeOnce.Do(func() {
		for _, conn := range m.closeWrites() {
			conn.SetReadDeadline(time.Now().Add(meshCloseDrain))
		}
		m.ln.Close()
		m.wg.Wait()
		m.closeRecv()
	})
	return nil
}

// Kill tears the mesh down abruptly: no goodbye, no drain — every
// connection closes mid-stream, so peers observe wire death
// (*errPeerDown) exactly as if the process had crashed. This is the
// chaos/test path; production shutdown is Close, whose goodbye keeps
// departure from being mistaken for failure.
func (m *MeshNetwork) Kill() error {
	m.leaveOnce.Do(m.stop)
	m.closeOnce.Do(func() {
		_, conns := m.snapshot()
		for _, conn := range conns {
			conn.Close()
		}
		m.closeSends()
		m.ln.Close()
		m.writerWG.Wait()
		m.wg.Wait()
		m.closeRecv()
	})
	return nil
}

// The shutdown phases. Close and Kill run them for one process's
// member; TCPNetwork.Close runs each for every member before the next.

// stop marks the member closed — from here on nothing dials, installs
// a connection or latches a peer down — and waits out its reconnect
// loops.
func (m *MeshNetwork) stop() {
	m.mu.Lock()
	m.closed = true
	close(m.closeCh)
	m.mu.Unlock()
	m.reconnWG.Wait()
}

// closeSends closes the send queues: blocked and later senders get
// errClosed, and each writer drains what was already queued and exits.
func (m *MeshNetwork) closeSends() {
	peers, _ := m.snapshot()
	for _, p := range peers {
		p.q.close()
	}
}

// closeWrites shuts down the write side of every installed connection,
// so the reader at the other end gets a clean EOF once it has consumed
// every drained frame, and returns them. It must follow the writers'
// exit: nothing may write after it.
func (m *MeshNetwork) closeWrites() []net.Conn {
	_, conns := m.snapshot()
	for _, conn := range conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}
	return conns
}

// closeRecv runs once the readers have exited: the receive queue
// closes (blocked Recv calls return errClosed once it is empty) and
// every connection is released.
func (m *MeshNetwork) closeRecv() {
	m.q.close()
	_, conns := m.snapshot()
	for _, conn := range conns {
		conn.Close()
	}
}

// snapshot returns the member's peers and installed connections.
func (m *MeshNetwork) snapshot() ([]*meshPeer, []net.Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	peers := make([]*meshPeer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	return peers, conns
}

// peer returns (creating on first use) the outgoing pipeline state for
// one peer node, with its writer goroutine running.
func (m *MeshNetwork) peer(id msg.NodeID) *meshPeer {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[id]
	if p == nil {
		p = &meshPeer{
			node:   id,
			dialer: -1,
			q:      newSendQueue(sendQueueDepth, m.stats.chargeStall),
			ackCh:  make(chan struct{}),
		}
		m.peers[id] = p
		if m.closed {
			p.q.close()
		} else {
			m.writerWG.Add(1)
			go m.writeLoop(p)
		}
	}
	return p
}

// meshPeer is one peer's outgoing pipeline: a bounded send queue
// drained by a dedicated writer goroutine, plus the pair's established
// connection (shared with the inbound reader) and handshake state.
type meshPeer struct {
	node msg.NodeID
	q    *sendQueue

	mu       lockrank.Mutex[lockrank.MeshPeer]
	acked    bool          // the peer acked our goodbye (or sent its own)
	ackCh    chan struct{} // closed when acked flips; replaced on a reconnect
	conn     net.Conn      // the pair's established connection; nil until dialed/accepted
	dialer   msg.NodeID    // which side dialed conn (the tiebreak witness); -1 when conn is nil
	dialing  bool          // this side has a dial in flight
	proposed uint64        // epoch the in-flight dial proposes; 0 when not dialing
	epoch    uint64        // current connection generation agreed in the handshake
	down     bool          // wire latched as failed; cleared only by a policy reconnect
	gone     bool          // peer announced a clean departure (goodbye)
}

// ackArrived satisfies this side's goodbye-ack wait.
func (p *meshPeer) ackArrived() {
	p.mu.Lock()
	if !p.acked {
		p.acked = true
		close(p.ackCh)
	}
	p.mu.Unlock()
}

// handshakeState returns what an inbound hello is judged against: the
// pair's effective epoch, and whether the hello would be a rejoin (the
// peer is latched down or departed). The effective epoch includes this
// side's in-flight dial proposal, so two simultaneous first dials (both
// proposing epoch+1) land in the duplicate tiebreak instead of each side
// accepting the other's "newer" generation and installing two
// connections. Caller holds p.mu.
func (p *meshPeer) handshakeState() (cur uint64, rejoin bool) {
	cur = p.epoch
	if p.dialing && p.proposed > cur {
		cur = p.proposed
	}
	return cur, p.down || p.gone
}

// errPeerRedialed is the cause of a latch taken because the peer dialed
// in again over a connection this side still held.
var errPeerRedialed = errors.New("peer re-dialed over the live connection")

// handleInbound runs the acceptor side of the connect handshake: read
// and validate the hello, resolve stale epochs and duplicate
// connections, answer accept/reject (the accept carries the agreed
// epoch), and on accept install the connection.
func (m *MeshNetwork) handleInbound(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(meshHandshakeTimeout))
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		conn.Close()
		return
	}
	if string(hello[:4]) != meshMagic ||
		binary.BigEndian.Uint16(hello[4:6]) != meshProtoVersion {
		conn.Close()
		return
	}
	from := msg.NodeID(binary.BigEndian.Uint32(hello[6:10]))
	hepoch := binary.BigEndian.Uint64(hello[10:18])
	if int(from) < 0 || int(from) >= m.topo.Nodes() || from == m.topo.Self {
		conn.Close()
		return
	}

	p := m.peer(from)
	if !m.registerConn(conn) {
		// Mesh is closing: refuse so no reader attaches to a
		// connection Close's teardown sweep cannot see.
		conn.Write([]byte{helloReject})
		conn.Close()
		return
	}
	p.mu.Lock()
	cur, rejoin := p.handshakeState()
	if m.topo.Reconnect.Enabled && !rejoin && p.conn != nil && (p.dialer == from || hepoch > cur) {
		// The peer dials again over a connection this side still holds:
		// an owner re-dial or a newer epoch means the peer's end of that
		// stream is dead (it restarted, or it latched the pair and is
		// re-dialing), and this side's reader has not seen the EOF yet.
		// Latch the old generation down first, exactly as that EOF
		// would, so its pending calls fail and the accept below is the
		// counted, announced rejoin it is.
		p.mu.Unlock()
		m.peerDown(p, nil, errPeerRedialed)
		p.mu.Lock()
		cur, rejoin = p.handshakeState()
	}
	accept := false
	switch {
	case rejoin && !m.topo.Reconnect.Enabled:
		// The latch is permanent without a reconnect policy: accepting
		// would create a half-open pair where the peer's requests
		// arrive but every reply dies on the failed send queue — its
		// Calls would hang with no errPeerDown ever surfacing on its
		// side. Rejecting tells the dialer promptly.
	case !rejoin && hepoch < cur && !(p.conn != nil && p.dialer == from):
		// Stale dial: a leftover from a generation this pair has
		// already replaced. Accepting it would resurrect a dead stream
		// over the live one. The exemption: a LOWER epoch from the
		// node that dialed the current connection is not stale — it is
		// a restarted process that lost its epoch memory while we
		// never observed its death (half-open pair, no RST); rejecting
		// it would lock the restarted peer out until this side happens
		// to write and latch. Its dial falls through to the owner
		// re-dial rule below and the agreed epoch advances past cur.
	case p.conn == nil && !p.dialing:
		// No connection and none in flight: first contact wins.
		accept = true
	case p.conn == nil && p.dialing:
		// Duplicate in flight both ways: the connection dialed by the
		// lower node ID survives. The peer dialed this one.
		accept = from < m.topo.Self
	default: // p.conn != nil
		// Re-dial from the side that already owns the connection, or a
		// strictly newer epoch, means the old stream is dead on the
		// peer's side (newer wins); otherwise apply the same
		// lower-dialer tiebreak against the established connection.
		accept = p.dialer == from || from < m.topo.Self || hepoch > cur
	}
	if !accept {
		p.mu.Unlock()
		conn.Write([]byte{helloReject})
		conn.Close()
		m.unregisterConn(conn)
		return
	}
	// The agreed epoch never regresses: normally it is the dialer's
	// proposal (>= cur by the cases above), but a rejoin after a latch
	// — or an owner re-dial proposing below cur (a restarted process
	// with no epoch memory) — advances past the current generation.
	// The fresh epoch is what keeps the dead generation's leftovers
	// stale.
	agreed := hepoch
	if (rejoin || hepoch < cur) && cur+1 > agreed {
		agreed = cur + 1
	}
	// The accept verdict must be on the wire BEFORE p.conn is
	// published: the moment the connection is visible, this side's
	// writer (polling in connFor/awaitInbound) may emit data frames on
	// it, and a frame byte arriving ahead of the verdict would be read
	// by the remote dialer as part of the handshake — losing the frame
	// and latching a healthy pair down. The handshake deadline set
	// above bounds this write; p.mu is held across it only against
	// other handshakes for the same peer.
	ack := make([]byte, 0, helloAcceptLen)
	ack = append(ack, helloAccept)
	ack = binary.BigEndian.AppendUint64(ack, agreed)
	if _, err := conn.Write(ack); err != nil {
		p.mu.Unlock()
		conn.Close()
		m.unregisterConn(conn)
		return
	}
	conn.SetDeadline(time.Time{})
	m.install(p, conn, from, agreed)
}

// install publishes conn as the pair's connection — generation epoch,
// dialed by dialer — and starts its reader: the acceptor's handshake, a
// first dial, a background re-dial and an in-process attach all end
// here. The caller holds p.mu, which install releases, and registered
// conn. A pair that was down or departed rejoins: its latches lift, and
// the reconnect is counted and announced before the reader starts, so
// subscribers rebuild state ahead of the peer's first frame.
func (m *MeshNetwork) install(p *meshPeer, conn net.Conn, dialer msg.NodeID, epoch uint64) {
	rejoin := p.down || p.gone
	old := p.conn
	p.conn, p.dialer, p.epoch = conn, dialer, epoch
	p.down, p.gone = false, false
	if rejoin {
		p.q.clearFail()
		// A later Leave must wait for this generation's ack.
		if p.acked {
			p.acked = false
			p.ackCh = make(chan struct{})
		}
	}
	p.mu.Unlock()

	if rejoin {
		m.stats.ctr.Reconnects.Inc()
		m.notify(peerReconnectEvent, p.node, epoch, nil)
	}
	if old != nil {
		old.Close()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.readConn(p, conn)
	}()
}

// errConnLost is the cause of a latch taken because the pair's
// connection stopped delivering.
var errConnLost = errors.New("connection lost")

// readConn routes one established connection's inbound frames to the
// receive queue until the stream dies, then — if this was still the
// pair's connection, the peer did not say goodbye, and the mesh is not
// closing — latches the peer down: the stream's loss means replies
// already requested can never arrive.
func (m *MeshNetwork) readConn(p *meshPeer, conn net.Conn) {
	readFrameStream(conn, func(mm *msg.Msg) {
		if mm.To != m.topo.Self || mm.From != p.node {
			// The connection joins exactly this pair, so a message
			// that claims another sender or another destination is
			// dropped rather than routed by what its header says — but
			// counted, so a misconfiguration is visible.
			m.stats.ctr.Misrouted.Inc()
			return
		}
		if m.q.push(mm) == nil {
			m.stats.delivered(m.topo.Self)
		}
	}, func(word uint32) bool {
		switch word {
		case ctrlGoodbye:
			m.peerGoodbye(p)
			return true
		case ctrlGoodbyeAck:
			p.ackArrived()
			return true
		}
		return false
	})
	conn.Close()
	m.unregisterConn(conn)
	m.peerDown(p, conn, errConnLost)
}

// peerGoodbye handles a peer's goodbye: acknowledge it (through the
// writer, so the ack cannot interleave a frame mid-write), mark the
// peer departed, and enqueue the departure marker behind every frame
// the peer delivered — consumers observe the departure strictly after
// everything the peer sent, which is what makes the goodbye race-free
// against in-flight replies.
func (m *MeshNetwork) peerGoodbye(p *meshPeer) {
	// The peer's goodbye also satisfies our own goodbye's ack wait:
	// both sides announcing departure means both have drained.
	p.ackArrived()
	p.mu.Lock()
	fresh := !p.gone && !p.down
	if fresh {
		p.gone = true
	}
	p.mu.Unlock()
	if fresh {
		// The soft latch is set BEFORE the ack goes back: once the
		// departing side's Close returns (it saw the ack), this side
		// is guaranteed to already fail new sends with *errPeerGone.
		p.q.reject(&errPeerGone{Node: p.node})
		m.stats.ctr.PeerGone.Inc()
		m.q.pushGone(p.node)
	}
	// Control items bypass the soft latch; if this mesh is itself
	// closing (queue closed) the put fails and the peer's ack-wait is
	// satisfied by our own goodbye instead — mutual departure.
	p.q.put(sendItem{ctrl: ctrlGoodbyeAck})
}

// peerDown latches one peer's wire as failed (once per outage): the
// send queue fails so blocked and future senders observe *errPeerDown,
// the established connection (if any) closes, and registered
// OnPeerDown callbacks fire with the epoch that died so vkernel can
// fail exactly the pending calls aimed at the dead generation. With a
// reconnect policy, a background re-dial loop starts; without one the
// latch is permanent. A departed peer, or a member that is closing,
// latches nothing.
//
// dead, when non-nil, is the connection whose stream ended: it stops
// being the pair's connection, and its loss latches the pair only if
// it still was — the end of a generation a reconnect already replaced
// is no outage.
func (m *MeshNetwork) peerDown(p *meshPeer, dead net.Conn, cause error) {
	closed := m.isClosed()
	p.mu.Lock()
	conn := p.conn
	if dead != nil && dead != conn {
		p.mu.Unlock()
		return
	}
	latch := !p.down && !p.gone && !closed
	if latch || dead != nil {
		p.conn, p.dialer = nil, -1
	}
	if !latch {
		p.mu.Unlock()
		return
	}
	// The queue latches before p.down is visible: a writer that finds
	// the peer down (connFor) returns the queue's error with it, never
	// a nil connection and a nil error.
	err := &errPeerDown{Node: p.node, Cause: cause}
	p.q.fail(err)
	p.down = true
	epoch := p.epoch
	p.mu.Unlock()

	if conn != nil {
		conn.Close()
	}
	m.stats.ctr.PeerDown.Inc()
	m.mu.Lock()
	if m.topo.Reconnect.Enabled && !m.closed {
		m.reconnWG.Add(1)
		go m.reconnectLoop(p)
	}
	m.mu.Unlock()
	m.notify(peerDownEvent, p.node, epoch, err)
}

// reconnectLoop is this side's background re-dial after a latch,
// governed by the topology's ReconnectPolicy. Each attempt proposes
// the next epoch; a success installs the fresh connection and clears
// the latch. The loop stops when the peer rejoins inbound first (a
// restarted process dials in with no memory of the pair — the acceptor
// handles that path), when attempts are exhausted, or when the mesh
// closes.
func (m *MeshNetwork) reconnectLoop(p *meshPeer) {
	defer m.reconnWG.Done()
	policy := m.topo.Reconnect
	backoff := policy.Backoff
	if backoff <= 0 {
		backoff = meshReconnectBackoff
	}
	for attempt := 0; policy.MaxAttempts == 0 || attempt < policy.MaxAttempts; attempt++ {
		select {
		case <-time.After(backoff):
		case <-m.closeCh:
			return
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
		p.mu.Lock()
		if !p.down {
			// An inbound rejoin beat us; the pair is healthy again.
			p.mu.Unlock()
			return
		}
		proposed := p.epoch + 1
		p.dialing = true
		p.proposed = proposed
		p.mu.Unlock()

		conn, agreed, accepted, err := m.dialPeerOnce(p.node, proposed)

		p.mu.Lock()
		p.dialing = false
		p.proposed = 0
		if err != nil || !accepted {
			// Unreachable (still restarting?) or rejected (the peer's
			// own dial won, or it latched us without a policy): keep
			// trying until something changes or attempts run out.
			p.mu.Unlock()
			continue
		}
		if !p.down || p.conn != nil || !m.registerConn(conn) {
			p.mu.Unlock()
			conn.Close()
			return
		}
		m.install(p, conn, m.topo.Self, agreed)
		return
	}
}

// connFor returns the peer's established connection, dialing it first
// if none exists. Only the peer's writer goroutine calls this, so at
// most one dial per peer is ever in flight from this side (the
// background reconnect loop runs only while the peer is latched, when
// the writer cannot have items to write).
func (m *MeshNetwork) connFor(p *meshPeer) (net.Conn, error) {
	for {
		p.mu.Lock()
		if p.conn != nil {
			conn := p.conn
			p.mu.Unlock()
			return conn, nil
		}
		if p.down {
			p.mu.Unlock()
			return nil, p.q.err()
		}
		if p.gone {
			p.mu.Unlock()
			return nil, &errPeerGone{Node: p.node}
		}
		if m.isClosed() {
			p.mu.Unlock()
			return nil, errClosed
		}
		p.dialing = true
		p.proposed = p.epoch + 1
		proposed := p.proposed
		p.mu.Unlock()

		conn, agreed, accepted, err := m.dialPeer(p.node, proposed)

		p.mu.Lock()
		p.dialing = false
		p.proposed = 0
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if accepted {
			if p.conn == nil && !p.down && !p.gone {
				if !m.registerConn(conn) {
					p.mu.Unlock()
					conn.Close()
					return nil, errClosed
				}
				m.install(p, conn, m.topo.Self, agreed)
				return conn, nil
			}
			// An inbound connection was installed while our dial was in
			// flight (the installed one stands, ours is redundant), or
			// the pair latched meanwhile: look again.
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.mu.Unlock()
		// Rejected: we lost the duplicate-connection tiebreak. The
		// surviving connection is the peer's own dial — wait for the
		// acceptor to install it.
		if c := m.awaitInbound(p); c != nil {
			return c, nil
		}
		return nil, fmt.Errorf("handshake rejected by node %d and no inbound connection arrived", p.node)
	}
}

// awaitInbound waits (bounded) for the acceptor to install the peer's
// inbound connection after this side's dial lost the tiebreak.
func (m *MeshNetwork) awaitInbound(p *meshPeer) net.Conn {
	deadline := time.Now().Add(meshInboundWait)
	for time.Now().Before(deadline) && !m.isClosed() {
		p.mu.Lock()
		conn, dead := p.conn, p.down || p.gone
		p.mu.Unlock()
		if conn != nil || dead {
			return conn
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// dialPeer opens a connection to the peer's topology address and runs
// the dialer side of the handshake, retrying briefly (a peer process
// may be a beat behind in binding its listener). accepted=false with a
// nil error means the acceptor rejected us (tiebreak); an error means
// the peer could not be reached within the retry budget.
func (m *MeshNetwork) dialPeer(node msg.NodeID, epoch uint64) (conn net.Conn, agreed uint64, accepted bool, err error) {
	var lastErr error
	for attempt := 0; attempt < meshDialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(meshDialBackoff)
		}
		if m.isClosed() {
			return nil, 0, false, errClosed
		}
		c, a, ok, derr := m.dialPeerOnce(node, epoch)
		if derr != nil {
			lastErr = derr
			continue
		}
		return c, a, ok, nil
	}
	return nil, 0, false, fmt.Errorf("dial node %d (%s): %w", node, m.topo.Addr(node), lastErr)
}

// dialPeerOnce runs a single dial + hello exchange proposing the given
// epoch. On accept, agreed is the epoch the acceptor stamped into its
// ack — the pair's new generation.
func (m *MeshNetwork) dialPeerOnce(node msg.NodeID, epoch uint64) (conn net.Conn, agreed uint64, accepted bool, err error) {
	m.stats.ctr.Dials.Inc()
	c, derr := net.DialTimeout("tcp", m.topo.Addr(node), meshDialTimeout)
	if derr != nil {
		return nil, 0, false, derr
	}
	c.SetDeadline(time.Now().Add(meshHandshakeTimeout))
	if _, werr := c.Write(encodeHello(m.topo.Self, epoch)); werr != nil {
		c.Close()
		return nil, 0, false, werr
	}
	var ack [helloAcceptLen]byte
	if _, rerr := io.ReadFull(c, ack[:1]); rerr != nil {
		c.Close()
		return nil, 0, false, rerr
	}
	if ack[0] != helloAccept {
		c.Close()
		return nil, 0, false, nil
	}
	if _, rerr := io.ReadFull(c, ack[1:]); rerr != nil {
		c.Close()
		return nil, 0, false, rerr
	}
	c.SetDeadline(time.Time{})
	return c, binary.BigEndian.Uint64(ack[1:]), true, nil
}

// writeLoop is one peer's writer: it drains whatever is queued and
// emits it as one vectored write (writeItems), establishing the
// connection first if there is none, then satisfies any fences that
// were queued behind those messages. A write or dial failure latches
// the peer down: the failed batch's messages are gone, so every later
// send or fence must fail loudly rather than let callers wait for
// replies that can never come.
func (m *MeshNetwork) writeLoop(p *meshPeer) {
	defer m.writerWG.Done()
	ws := &writeScratch{}
	for {
		items, ok := p.q.drain()
		if len(items) > 0 {
			err := p.q.err()
			if err == nil {
				var conn net.Conn
				conn, err = m.writeToPeer(p, items, ws)
				if err != nil {
					if m.isClosed() {
						err = errClosed
					} else {
						m.peerDown(p, conn, err)
						// The latched *errPeerDown — unless nothing
						// latched (the peer departed, or conn was a
						// replaced generation): the raw error stands.
						if le := p.q.err(); le != nil {
							err = le
						}
					}
				}
			}
			// Batch finished (written or failed): fences observe the
			// outcome, owned wire buffers return to the pool, and the
			// batch storage recycles to the queue.
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

// writeToPeer establishes (if needed) the peer's connection and emits
// one drained batch. A write that fails because the connection was
// replaced mid-write — it is no longer the pair's current connection
// (a reconnect or a lost duplicate tiebreak swapped the stream under
// us) — is retried once on the replacement rather than treated as peer
// death, so a handshake race never turns into a false latch. A failed
// write returns the connection it failed on, so that its loss latches
// that generation only (see peerDown); a failed connFor returns none.
func (m *MeshNetwork) writeToPeer(p *meshPeer, items []sendItem, ws *writeScratch) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		conn, err := m.connFor(p)
		if err != nil {
			return nil, err
		}
		werr := writeItems(conn, items, ws, m.stats)
		if werr == nil {
			return conn, nil
		}
		p.mu.Lock()
		replaced := p.conn != nil && p.conn != conn
		p.mu.Unlock()
		if !replaced || attempt >= 1 {
			return conn, werr
		}
	}
}

// Node implements Endpoint.
func (m *MeshNetwork) Node() msg.NodeID { return m.topo.Self }

// Send implements Endpoint: marshal into a pooled buffer and hand it to
// SendOwned, which charges it and queues it on the destination peer's
// writer (dialing lazily on first use) without waiting for the wire —
// Flush is the fence.
func (m *MeshNetwork) Send(mm *msg.Msg) error {
	mm.From = m.topo.Self
	return m.SendOwned(marshalPooled(mm))
}

// SendOwned implements EncodedSender: enqueue an already-marshalled
// wire buffer, taking ownership. The writer releases it after its
// vectored write (a failure releases it here), so payload bytes move
// once, diff scratch → wire buffer. A self-send copies the bytes for the
// receive queue and releases the buffer at once.
func (m *MeshNetwork) SendOwned(wb *bufpool.Buffer) error {
	kind, to, err := msg.PeekHeader(wb.B)
	if err != nil {
		wb.Release()
		return err
	}
	if int(to) < 0 || int(to) >= m.topo.Nodes() {
		wb.Release()
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	msg.SetFrom(wb.B, m.topo.Self)
	m.stats.chargeEncoded(kind, len(wb.B), m.cost, m.topo.Self)
	if to == m.topo.Self {
		enc := append([]byte(nil), wb.B...)
		wb.Release()
		return m.stats.deliverBytes(m.q, to, enc)
	}
	err = m.peer(to).q.put(sendItem{enc: wb.B, own: wb, class: classOf(kind)})
	if err != nil {
		wb.Release() // never queued: no writer will release it
	}
	return err
}

// Flush implements Endpoint: fence every peer pipeline this process has
// opened and wait until all messages enqueued before the call are on
// the wire.
//
// Dead and departed peers do not fail the fence: a latched peer's loss
// is reported through the pending-call path (OnPeerDown/OnPeerGone →
// vkernel fails exactly the calls aimed at it), and returning the
// typed error here would poison every later flush — including ones
// whose traffic involves only healthy peers — for as long as the latch
// holds. The fence's contract stays "everything enqueued has reached a
// live wire or a latched failure"; only shutdown-class errors surface.
func (m *MeshNetwork) Flush() error {
	lockrank.Blocking()
	fs := getFenceSet()
	defer fs.release()
	m.mu.Lock()
	for _, p := range m.peers {
		fs.peers = append(fs.peers, p)
	}
	m.mu.Unlock()

	var first error
	latched := func(err error) bool {
		var pd *errPeerDown
		var pg *errPeerGone
		return errors.As(err, &pd) || errors.As(err, &pg)
	}
	for _, p := range fs.peers {
		ch := getFence()
		if err := p.q.put(sendItem{fence: ch}); err != nil {
			putFence(ch) // never enqueued: no writer will touch it
			if !latched(err) && first == nil {
				first = err
			}
			continue
		}
		fs.chans = append(fs.chans, ch)
	}
	for _, ch := range fs.chans {
		if err := <-ch; err != nil && !latched(err) && first == nil {
			first = err
		}
		putFence(ch)
	}
	return first
}

func (m *MeshNetwork) Recv() (*msg.Msg, error) {
	for {
		it, err := m.q.pop()
		if err != nil {
			return nil, err
		}
		if it.m == nil {
			// Departure marker: every frame the peer sent has been
			// returned by earlier Recv calls; only now do the gone
			// callbacks fire, so nothing in flight is ever failed.
			m.notify(peerGoneEvent, it.peer, 0, &errPeerGone{Node: it.peer})
			continue
		}
		return it.m, nil
	}
}
