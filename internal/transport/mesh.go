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
	"munin/internal/msg"
	"munin/internal/stats"
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
// addresses the Topology names. It is the layer that takes the writer
// pipeline off loopback: the per-peer send queues, coalescing writers,
// and frame codec are exactly the ones TCPNetwork uses — what changes
// is connection lifecycle (lazy dialing with a hello handshake instead
// of a fixed all-pairs dial at construction) and failure semantics
// (wire death latches an ErrPeerDown instead of being impossible).
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
//     latched DOWN — later Sends fail fast with *ErrPeerDown, queued
//     fences observe it, and OnPeerDown callbacks fire once per outage
//     with the epoch that died. Without a reconnect policy the latch
//     is permanent; with Topology.Reconnect enabled the mesh re-dials
//     in the background and accepts rejoin dials from the peer, and a
//     successful handshake clears the latch on a fresh epoch (counter
//     wire.reconnects), replaying nothing.
//   - Departure: the peer announced a goodbye and drained. The peer is
//     marked GONE, not down — every frame it sent is still delivered,
//     and only then do OnPeerGone callbacks fire; new Sends fail with
//     *ErrPeerGone. No OnPeerDown fires and nothing was lost.
type MeshNetwork struct {
	topo  Topology
	stats *Stats
	cost  CostModel
	ln    net.Listener
	ep    *meshEndpoint

	mu       sync.Mutex
	peers    map[msg.NodeID]*meshPeer
	conns    map[net.Conn]struct{} // every installed connection, for Close's teardown sweep
	onDown   []func(msg.NodeID, uint64, error)
	onGone   []func(msg.NodeID, error)
	onReconn []func(msg.NodeID, uint64)
	closed   bool

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
	m := &MeshNetwork{
		topo:    topo,
		stats:   newStats(topo.Nodes()),
		cost:    cost,
		ln:      ln,
		peers:   make(map[msg.NodeID]*meshPeer),
		conns:   make(map[net.Conn]struct{}),
		closeCh: make(chan struct{}),
	}
	m.ep = &meshEndpoint{m: m, q: newQueue()}
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

// Addr returns the address the mesh actually bound (useful when the
// topology named port 0).
func (m *MeshNetwork) Addr() string { return m.ln.Addr().String() }

// Self returns this process's node ID.
func (m *MeshNetwork) Self() msg.NodeID { return m.topo.Self }

// Endpoint implements Network. Only the self node's endpoint exists in
// this process; asking for any other is a programming error.
func (m *MeshNetwork) Endpoint(n msg.NodeID) Endpoint {
	if n != m.topo.Self {
		panic(fmt.Sprintf("transport: mesh process for node %d has no endpoint for node %d",
			m.topo.Self, n))
	}
	return m.ep
}

// Nodes implements Network.
func (m *MeshNetwork) Nodes() int { return m.topo.Nodes() }

// Stats implements Network. The accounting covers this process's
// traffic only — each mesh member counts what it sends and receives.
func (m *MeshNetwork) Stats() *Stats { return m.stats }

// Multicast falls back to unicast sends, like TCPNetwork: each member's
// copy is enqueued on that peer's coalescing writer.
func (m *MeshNetwork) Multicast(mm *msg.Msg, members []msg.NodeID) error {
	for _, dst := range members {
		cp := *mm
		cp.To = dst
		if err := m.ep.Send(&cp); err != nil {
			return err
		}
	}
	return nil
}

// OnPeerDown implements PeerDownNotifier.
func (m *MeshNetwork) OnPeerDown(fn func(peer msg.NodeID, epoch uint64, err error)) {
	m.mu.Lock()
	m.onDown = append(m.onDown, fn)
	m.mu.Unlock()
}

// OnPeerGone implements PeerGoneNotifier. Callbacks run on the self
// endpoint's Recv path, after every frame the departed peer sent has
// been returned by Recv.
func (m *MeshNetwork) OnPeerGone(fn func(peer msg.NodeID, err error)) {
	m.mu.Lock()
	m.onGone = append(m.onGone, fn)
	m.mu.Unlock()
}

// OnPeerReconnect implements PeerReconnectNotifier. Callbacks run on
// the transport goroutine that completed the rejoin handshake, before
// any frame from the fresh connection is dispatched.
func (m *MeshNetwork) OnPeerReconnect(fn func(peer msg.NodeID, epoch uint64)) {
	m.mu.Lock()
	m.onReconn = append(m.onReconn, fn)
	m.mu.Unlock()
}

// notifyReconnect fires the reconnect callbacks for a revived pair.
// It must be called before the new connection's reader starts so
// subscribers finish rebuilding state ahead of the peer's first frame.
func (m *MeshNetwork) notifyReconnect(peer msg.NodeID, epoch uint64) {
	m.mu.Lock()
	cbs := append([]func(msg.NodeID, uint64){}, m.onReconn...)
	m.mu.Unlock()
	for _, cb := range cbs {
		cb(peer, epoch)
	}
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
// sends with *ErrPeerGone; no peer-down latch fires anywhere. After
// Leave the endpoint accepts no new sends (they fail with ErrClosed);
// the receive side stays open until Close. Idempotent, and Close calls
// it first, so a bare Close is also a graceful goodbye.
func (m *MeshNetwork) Leave() error {
	m.leaveOnce.Do(m.doLeave)
	return nil
}

func (m *MeshNetwork) doLeave() {
	m.mu.Lock()
	m.closed = true
	close(m.closeCh)
	peers := make([]*meshPeer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	// Snapshot every installed connection (the registry, not the peer
	// snapshot: once closed is set, registerConn refuses new installs,
	// so this set is final).
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	// Reconnect loops check closeCh and exit; after this no goroutine
	// installs a connection or touches the wait groups.
	m.reconnWG.Wait()

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
	for _, p := range peers {
		p.q.close()
	}
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
// reports ErrClosed.
func (m *MeshNetwork) Close() error {
	m.Leave()
	m.closeOnce.Do(m.teardown)
	return nil
}

// Kill tears the mesh down abruptly: no goodbye, no drain — every
// connection closes mid-stream, so peers observe wire death
// (*ErrPeerDown) exactly as if the process had crashed. This is the
// chaos/test path; production shutdown is Close, whose goodbye keeps
// departure from being mistaken for failure.
func (m *MeshNetwork) Kill() error {
	m.leaveOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		close(m.closeCh)
		m.mu.Unlock()
	})
	m.closeOnce.Do(func() {
		m.mu.Lock()
		peers := make([]*meshPeer, 0, len(m.peers))
		for _, p := range m.peers {
			peers = append(peers, p)
		}
		conns := make([]net.Conn, 0, len(m.conns))
		for c := range m.conns {
			conns = append(conns, c)
		}
		m.mu.Unlock()
		m.reconnWG.Wait()
		for _, p := range peers {
			p.q.close()
		}
		for _, conn := range conns {
			conn.Close()
		}
		m.ln.Close()
		m.writerWG.Wait()
		m.wg.Wait()
		m.ep.q.close()
		for _, p := range peers {
			p.mu.Lock()
			p.conn = nil
			p.mu.Unlock()
		}
	})
	return nil
}

func (m *MeshNetwork) teardown() {
	m.mu.Lock()
	peers := make([]*meshPeer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()

	// Write sides shut down: CloseWrite gives the remote a clean EOF
	// once it has consumed the drained frames; the read deadline bounds
	// our own reader if the remote lingers.
	for _, conn := range conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(meshCloseDrain))
	}
	m.ln.Close()
	m.wg.Wait()
	m.ep.q.close()
	for _, conn := range conns {
		conn.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		p.conn = nil
		p.mu.Unlock()
	}
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

	mu       sync.Mutex
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

// resetAck re-arms the goodbye-ack wait after a reconnect, so a later
// Leave on the revived pair waits for a REAL ack instead of observing
// the previous generation's. Caller holds p.mu.
func (p *meshPeer) resetAck() {
	if p.acked {
		p.acked = false
		p.ackCh = make(chan struct{})
	}
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
// epoch), and on accept attach the shared reader path.
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
		m.peerDown(p, errPeerRedialed)
		p.mu.Lock()
		cur, rejoin = p.handshakeState()
	}
	accept := false
	switch {
	case rejoin && !m.topo.Reconnect.Enabled:
		// The latch is permanent without a reconnect policy: accepting
		// would create a half-open pair where the peer's requests
		// arrive but every reply dies on the failed send queue — its
		// Calls would hang with no ErrPeerDown ever surfacing on its
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
	old := p.conn
	p.conn = conn
	p.dialer = from
	p.epoch = agreed
	p.down, p.gone = false, false
	if rejoin {
		p.q.clearFail()
		p.resetAck()
	}
	p.mu.Unlock()

	if rejoin {
		m.stats.byClass.Add(stats.CWireReconnects, 1)
		m.notifyReconnect(p.node, agreed)
	}
	if old != nil {
		old.Close()
	}
	conn.SetDeadline(time.Time{})
	m.readConn(p, conn)
}

// startReader attaches the frame reader to an established connection on
// its own goroutine (dialer side; the acceptor reuses its goroutine).
func (m *MeshNetwork) startReader(p *meshPeer, conn net.Conn) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.readConn(p, conn)
	}()
}

// readConn routes one established connection's inbound frames through
// the shared reader path until the stream dies, then — if this was
// still the pair's connection, the peer did not say goodbye, and the
// mesh is not closing — latches the peer down: the stream's loss means
// replies already requested can never arrive.
func (m *MeshNetwork) readConn(p *meshPeer, conn net.Conn) {
	readFrameStream(conn, func(mm *msg.Msg) {
		if mm.To != m.topo.Self {
			// Misrouted frame: drop, like an unknown port — but
			// counted, so a topology misconfiguration is visible.
			m.stats.byClass.Add(stats.CWireMisrouted, 1)
			return
		}
		if m.ep.q.push(mm) == nil {
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
	p.mu.Lock()
	current := p.conn == conn
	gone := p.gone
	if current {
		p.conn = nil
		p.dialer = -1
	}
	p.mu.Unlock()
	if current && !gone && !m.isClosed() {
		m.peerDown(p, fmt.Errorf("connection lost"))
	}
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
		// is guaranteed to already fail new sends with *ErrPeerGone.
		p.q.reject(&ErrPeerGone{Node: p.node})
		m.stats.byClass.Add(stats.CWirePeerGone, 1)
		m.ep.q.pushGone(p.node)
	}
	// Control items bypass the soft latch; if this mesh is itself
	// closing (queue closed) the put fails and the peer's ack-wait is
	// satisfied by our own goodbye instead — mutual departure.
	p.q.put(sendItem{ctrl: ctrlGoodbyeAck})
}

// peerDown latches one peer's wire as failed (once per outage): the
// send queue fails so blocked and future senders observe *ErrPeerDown,
// the established connection (if any) closes, and registered
// OnPeerDown callbacks fire with the epoch that died so vkernel can
// fail exactly the pending calls aimed at the dead generation. With a
// reconnect policy, a background re-dial loop starts; without one the
// latch is permanent.
func (m *MeshNetwork) peerDown(p *meshPeer, cause error) {
	p.mu.Lock()
	if p.down || p.gone {
		p.mu.Unlock()
		return
	}
	p.down = true
	epoch := p.epoch
	conn := p.conn
	p.conn = nil
	p.dialer = -1
	p.mu.Unlock()

	if conn != nil {
		conn.Close()
	}
	err := &ErrPeerDown{Node: p.node, Cause: cause}
	p.q.fail(err)
	m.stats.byClass.Add(stats.CWirePeerDown, 1)
	m.mu.Lock()
	var cbs []func(msg.NodeID, uint64, error)
	cbs = append(cbs, m.onDown...)
	if m.topo.Reconnect.Enabled && !m.closed {
		m.reconnWG.Add(1)
		go m.reconnectLoop(p)
	}
	m.mu.Unlock()
	for _, cb := range cbs {
		cb(p.node, epoch, err)
	}
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
		p.conn = conn
		p.dialer = m.topo.Self
		p.epoch = agreed
		p.down, p.gone = false, false
		p.q.clearFail()
		p.resetAck()
		p.mu.Unlock()
		m.stats.byClass.Add(stats.CWireReconnects, 1)
		m.notifyReconnect(p.node, agreed)
		m.startReader(p, conn)
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
			return nil, &ErrPeerGone{Node: p.node}
		}
		if m.isClosed() {
			p.mu.Unlock()
			return nil, ErrClosed
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
			if p.conn == nil {
				if !m.registerConn(conn) {
					p.mu.Unlock()
					conn.Close()
					return nil, ErrClosed
				}
				p.conn = conn
				p.dialer = m.topo.Self
				p.epoch = agreed
				p.mu.Unlock()
				m.startReader(p, conn)
				return conn, nil
			}
			// An inbound connection was installed while our dial was in
			// flight; the installed one stands, ours is redundant.
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
			return nil, 0, false, ErrClosed
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
	m.stats.byClass.Add(stats.CWireDials, 1)
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

// writeLoop is one peer's writer: identical in shape to the loopback
// writer (drain, one vectored write, satisfy fences), with connection
// establishment folded in and write/dial failures latched as peer
// death instead of only on the queue.
func (m *MeshNetwork) writeLoop(p *meshPeer) {
	defer m.writerWG.Done()
	ws := &writeScratch{}
	for {
		items, ok := p.q.drain()
		if len(items) > 0 {
			err := p.q.err()
			if err == nil {
				err = m.writeToPeer(p, items, ws)
				if err != nil {
					if m.isClosed() {
						err = ErrClosed
					} else {
						m.peerDown(p, err)
						// The latched *ErrPeerDown — unless the peer
						// was gone (no latch), where the raw write
						// error stands.
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
// death, so a handshake race never turns into a false latch.
func (m *MeshNetwork) writeToPeer(p *meshPeer, items []sendItem, ws *writeScratch) error {
	for attempt := 0; ; attempt++ {
		conn, err := m.connFor(p)
		if err != nil {
			return err
		}
		werr := writeItems(conn, items, ws, m.stats)
		if werr == nil {
			return nil
		}
		p.mu.Lock()
		replaced := p.conn != nil && p.conn != conn
		p.mu.Unlock()
		if !replaced || attempt >= 1 {
			return werr
		}
	}
}

// meshEndpoint is the self node's attachment to the mesh.
type meshEndpoint struct {
	m *MeshNetwork
	q *queue // receive side
}

func (e *meshEndpoint) Node() msg.NodeID { return e.m.topo.Self }

// Leave implements Leaver: announce departure to every connected peer,
// drain, and wait for their acks. See MeshNetwork.Leave.
func (e *meshEndpoint) Leave() error { return e.m.Leave() }

// Send implements Endpoint: marshal (into a pooled buffer the writer
// releases, see tcpEndpoint.Send), charge, and queue on the destination
// peer's writer (which dials lazily on first use). Self-sends are
// delivered directly to the local receive queue — they have no wire to
// cross — as a private Marshal the queue's consumer owns.
func (e *meshEndpoint) Send(mm *msg.Msg) error {
	if int(mm.To) < 0 || int(mm.To) >= e.m.topo.Nodes() {
		return fmt.Errorf("transport: send to unknown node %d", mm.To)
	}
	mm.From = e.m.topo.Self
	e.m.stats.charge(mm, e.m.cost, e.m.topo.Self)
	if mm.To == e.m.topo.Self {
		return e.m.stats.deliverBytes(e.q, mm.To, mm.Marshal())
	}
	return e.m.peer(mm.To).q.putOwned(marshalPooled(mm), ClassOf(mm.Kind))
}

// SendOwned implements EncodedSender; see tcpEndpoint.SendOwned, self-sends
// included.
func (e *meshEndpoint) SendOwned(wb *bufpool.Buffer) error {
	kind, to, err := msg.PeekHeader(wb.B)
	if err != nil {
		wb.Release()
		return err
	}
	if int(to) < 0 || int(to) >= e.m.topo.Nodes() {
		wb.Release()
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	msg.SetFrom(wb.B, e.m.topo.Self)
	e.m.stats.chargeEncoded(kind, len(wb.B), e.m.cost, e.m.topo.Self)
	if to == e.m.topo.Self {
		enc := append([]byte(nil), wb.B...)
		wb.Release()
		return e.m.stats.deliverBytes(e.q, to, enc)
	}
	return e.m.peer(to).q.putOwned(wb, ClassOf(kind))
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
func (e *meshEndpoint) Flush() error {
	fs := getFenceSet()
	defer fs.release()
	e.m.mu.Lock()
	for _, p := range e.m.peers {
		fs.peers = append(fs.peers, p)
	}
	e.m.mu.Unlock()

	var first error
	latched := func(err error) bool {
		var pd *ErrPeerDown
		var pg *ErrPeerGone
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

func (e *meshEndpoint) Recv() (*msg.Msg, error) {
	for {
		it, err := e.q.pop()
		if err != nil {
			return nil, err
		}
		if it.m == nil {
			// Departure marker: every frame the peer sent has been
			// returned by earlier Recv calls; only now do the gone
			// callbacks fire, so nothing in flight is ever failed.
			e.m.notifyPeerGone(it.peer)
			continue
		}
		return it.m, nil
	}
}

func (m *MeshNetwork) notifyPeerGone(peer msg.NodeID) {
	m.mu.Lock()
	var cbs []func(msg.NodeID, error)
	cbs = append(cbs, m.onGone...)
	m.mu.Unlock()
	err := &ErrPeerGone{Node: peer}
	for _, cb := range cbs {
		cb(peer, err)
	}
}
