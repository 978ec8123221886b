package transport

import (
	"fmt"
	"net"
	"sync"

	"munin/internal/msg"
)

// TCPNetwork runs every node of a cluster in this process over real
// loopback sockets. It is n MeshNetwork members, one per node, that
// share one Stats: the writer, reader, peer-down latch and notifier
// code a multi-process cluster runs is the code under test here too.
// What the in-process shape leaves out is the connection lifecycle
// around it. Every unordered pair {i, j} is connected once, at
// construction, by one duplex TCP connection installed in both members
// at epoch 1, so a member has no listener and never dials; and Close
// quiesces every member at once instead of saying goodbye pair by pair.
//
// A reply travels on the socket its request arrived on, so the kernel
// can piggyback the request's ACK on it — the V kernel's "the reply is
// the acknowledgement" — instead of answering every message with a
// pure-ACK segment of its own.
type TCPNetwork struct {
	eps  []*MeshNetwork // node i's member, which is also its endpoint
	once sync.Once
}

// NewTCPNetwork creates an n-node network over loopback TCP. All nodes
// live in this process but every message traverses the OS socket layer.
func NewTCPNetwork(n int, cost CostModel) (*TCPNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: need at least one node")
	}
	st := newStats(n)
	tn := &TCPNetwork{eps: make([]*MeshNetwork, n)}
	// Members never dial, so no node has an address.
	addrs := make(map[msg.NodeID]string, n)
	for i := range n {
		addrs[msg.NodeID(i)] = ""
	}
	for i := range tn.eps {
		tn.eps[i] = newMember(Topology{Self: msg.NodeID(i), Peers: addrs}, st, cost, nil)
	}

	// The listener lives only as long as construction: each pair is
	// dialed and accepted right here, one after the other, so there is
	// no accept loop to run and nothing left listening afterwards. A
	// node's messages to itself never leave it, so i == j has no
	// connection.
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
			lo, hi := msg.NodeID(i), msg.NodeID(j)
			tn.eps[i].attach(hi, lo, dialed)
			tn.eps[j].attach(lo, lo, accepted)
		}
	}
	return tn, nil
}

// Endpoint implements Network.
func (tn *TCPNetwork) Endpoint(id msg.NodeID) Endpoint { return tn.eps[id] }

// Nodes implements Network.
func (tn *TCPNetwork) Nodes() int { return len(tn.eps) }

// Stats implements Network: the members share one.
func (tn *TCPNetwork) Stats() *Stats { return tn.eps[0].stats }

// Multicast implements Network through the sender's member (see
// MeshNetwork.Multicast).
func (tn *TCPNetwork) Multicast(m *msg.Msg, members []msg.NodeID) error {
	return tn.eps[m.From].Multicast(m, members)
}

// Close shuts every member down phase by phase, each phase finished for
// all members before the next starts:
//
//  1. send queues close — blocked or late senders get errClosed;
//  2. writers drain what was already queued onto the wire and exit, so
//     nothing ever writes on a closed connection;
//  3. the write side of every connection end shuts down, giving the
//     reader at the other end a clean EOF after it has consumed every
//     drained frame;
//  4. readers exit, having routed everything that made it to the wire;
//  5. receive queues close — blocked Recv calls return errClosed.
//
// Step 2 finishes for every writer before step 3 starts for any
// connection because the two directions of a pair share one socket: an
// end's reader sees EOF while that end's writer would otherwise still
// be entitled to write. No goodbye is sent: every member closes, so
// there is no survivor to tell departure from failure.
func (tn *TCPNetwork) Close() error {
	tn.once.Do(func() {
		for _, m := range tn.eps {
			m.leaveOnce.Do(func() { m.stop(); m.closeSends() })
		}
		for _, m := range tn.eps {
			m.writerWG.Wait()
		}
		for _, m := range tn.eps {
			m.closeWrites()
		}
		for _, m := range tn.eps {
			m.wg.Wait()
		}
		for _, m := range tn.eps {
			m.closeRecv()
		}
	})
	return nil
}
