package transport

import (
	"fmt"

	"munin/internal/lockrank"
	"munin/internal/msg"
)

// ChanNetwork is the in-process network: one unbounded queue per node.
// Messages are fully serialized on send and deserialized on receive, so
// no Go pointer ever crosses a node boundary — the same no-shared-state
// discipline a real distributed memory machine enforces.
type ChanNetwork struct {
	eps   []*chanEndpoint
	stats *Stats
	cost  CostModel
}

// NewChanNetwork creates an in-process network of n nodes with the given
// cost model.
func NewChanNetwork(n int, cost CostModel) *ChanNetwork {
	if n <= 0 {
		panic("transport: network needs at least one node")
	}
	net := &ChanNetwork{stats: newStats(n), cost: cost}
	net.eps = make([]*chanEndpoint, n)
	for i := range net.eps {
		net.eps[i] = &chanEndpoint{net: net, node: msg.NodeID(i), q: newQueue()}
	}
	return net
}

// Endpoint implements Network.
func (n *ChanNetwork) Endpoint(id msg.NodeID) Endpoint {
	return n.eps[id]
}

// Nodes implements Network.
func (n *ChanNetwork) Nodes() int { return len(n.eps) }

// Stats implements Network.
func (n *ChanNetwork) Stats() *Stats { return n.stats }

// Multicast models hardware (Ethernet) multicast: the message is charged
// once on the wire but delivered to every member.
func (n *ChanNetwork) Multicast(m *msg.Msg, members []msg.NodeID) error {
	m.Flags |= msg.FlagMulticast
	buf := m.Marshal()
	n.stats.charge(m, n.cost, m.From)
	n.stats.chargeWire(1, nil)
	for _, dst := range members {
		if int(dst) >= len(n.eps) || dst < 0 {
			return fmt.Errorf("transport: multicast to unknown node %d", dst)
		}
		// Each member gets its own copy of the buffer; payload slices
		// must not be shared across nodes.
		cp := append([]byte(nil), buf...)
		if err := n.stats.deliverBytes(n.eps[dst].q, dst, cp); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Network.
func (n *ChanNetwork) Close() error {
	for _, ep := range n.eps {
		ep.q.close()
	}
	return nil
}

type chanEndpoint struct {
	net  *ChanNetwork
	node msg.NodeID
	q    *queue
}

func (e *chanEndpoint) Node() msg.NodeID { return e.node }

func (e *chanEndpoint) Send(m *msg.Msg) error {
	if int(m.To) >= len(e.net.eps) || m.To < 0 {
		return fmt.Errorf("transport: send to unknown node %d", m.To)
	}
	m.From = e.node
	buf := m.Marshal()
	e.net.stats.charge(m, e.net.cost, e.node)
	// In-process delivery is one queue push — the chan transport's
	// "wire write". Charging it keeps the wire counters comparable
	// across backends (no coalescing to observe here: the win the TCP
	// writer pipeline buys is exactly what this substrate gets for
	// free).
	e.net.stats.chargeWire(1, nil)
	return e.net.stats.deliverBytes(e.net.eps[m.To].q, m.To, buf)
}

// Flush implements Endpoint. Sends are delivered synchronously, so the
// fence is trivially satisfied.
func (e *chanEndpoint) Flush() error {
	lockrank.Blocking()
	return nil
}

func (e *chanEndpoint) Recv() (*msg.Msg, error) {
	it, err := e.q.pop()
	return it.m, err
}
