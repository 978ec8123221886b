// Package cluster assembles the distributed-memory machine: a network
// plus vkernels on top of it. It is the stand-in for the paper's
// "Ethernet network of SUN workstations".
//
// Two shapes exist. The in-process shape (chan or loopback-TCP
// transport) builds every node's kernel in one process — the default
// for experiments and tests. The mesh shape (Config.Topology set)
// builds ONE node of a multi-process cluster: this process binds its
// topology address, runs only its own kernel, and reaches the other
// nodes over real TCP connections; the other processes run the
// remaining node IDs with the same topology.
package cluster

import (
	"fmt"
	"sync/atomic"

	"munin/internal/msg"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// Config describes the machine to simulate.
type Config struct {
	// Nodes is the number of processors. Must be >= 1. Ignored when
	// Topology is set (the topology defines the cluster size).
	Nodes int
	// Transport selects the substrate: "chan" (default, in-process with
	// modeled costs) or "tcp" (real loopback sockets: one mesh member
	// per node, pre-connected, so the in-process cluster runs the peer
	// pipeline a multi-process one does). Ignored when Topology is set.
	Transport string
	// Cost is the network cost model; zero value means free/instant,
	// which is appropriate for unit tests. Use
	// transport.DefaultCostModel() for paper-like accounting.
	Cost transport.CostModel
	// Topology, when non-nil, makes this process one member of a
	// multi-process mesh: it runs only the topology's self node and
	// dials the other nodes at their topology addresses.
	Topology *transport.Topology
	// Reconnect, when non-nil, overrides the topology's
	// reconnect-after-latch policy (mesh shape only). Nil keeps
	// whatever the topology carries — by default the permanent latch.
	Reconnect *transport.ReconnectPolicy
}

// Cluster is a running machine — or, in mesh shape, this process's
// member of one.
type Cluster struct {
	net     transport.Network
	kernels []*vkernel.Kernel // mesh shape: only the self slot is non-nil
	self    msg.NodeID        // mesh shape only; -1 in-process
	killed  atomic.Bool       // a Kill has begun
}

// New builds and starts a cluster — or, with cfg.Topology, builds this
// process's node of one and leaves it to the caller to Start: the other
// members are already running, so the node must not dispatch anything
// before its owner has registered every handler.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology != nil {
		topo := *cfg.Topology
		if cfg.Reconnect != nil {
			topo.Reconnect = *cfg.Reconnect
		}
		return newMeshNode(topo, cfg.Cost)
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	var net transport.Network
	switch cfg.Transport {
	case "", "chan":
		net = transport.NewChanNetwork(cfg.Nodes, cfg.Cost)
	case "tcp":
		tn, err := transport.NewTCPNetwork(cfg.Nodes, cfg.Cost)
		if err != nil {
			return nil, err
		}
		net = tn
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q", cfg.Transport)
	}
	c := &Cluster{net: net, self: -1}
	c.kernels = make([]*vkernel.Kernel, cfg.Nodes)
	for i := range c.kernels {
		c.kernels[i] = vkernel.New(net, msg.NodeID(i))
	}
	return c, nil
}

// newMeshNode builds one node of a multi-process cluster: bind the
// topology's self address (inbound frames queue from here on), build
// the self kernel un-started, dial peers lazily.
func newMeshNode(topo transport.Topology, cost transport.CostModel) (*Cluster, error) {
	mn, err := transport.NewMeshNetwork(topo, cost)
	if err != nil {
		return nil, err
	}
	c := &Cluster{net: mn, self: topo.Self}
	c.kernels = make([]*vkernel.Kernel, topo.Nodes())
	c.kernels[topo.Self] = vkernel.NewUnstarted(mn, topo.Self)
	return c, nil
}

// Start begins dispatching on a mesh node's kernel. The owner calls it
// once, after everything that will ever handle a message — protocol
// server, lock service, its own kinds — has registered; requests that
// arrived earlier have been waiting in the receive queue and are
// dispatched now. An in-process cluster is started by New.
func (c *Cluster) Start() { c.kernels[c.self].Start() }

// Nodes returns the number of processors in the cluster (for a mesh
// node, the whole cluster's size, not just this process's share).
func (c *Cluster) Nodes() int { return len(c.kernels) }

// Self returns this process's node ID in mesh shape, or -1 when every
// node lives in this process.
func (c *Cluster) Self() msg.NodeID { return c.self }

// Kernel returns node n's vkernel. In mesh shape only the self node's
// kernel exists in this process; asking for another panics.
func (c *Cluster) Kernel(n msg.NodeID) *vkernel.Kernel {
	k := c.kernels[n]
	if k == nil {
		panic(fmt.Sprintf("cluster: node %d runs in another process (this one is %d)", n, c.self))
	}
	return k
}

// Stats returns the network traffic accounting.
func (c *Cluster) Stats() *transport.Stats { return c.net.Stats() }

// Network returns the underlying transport, for callers that need the
// transport-specific surfaces (transport.Leaver, transport.PeerEpochs,
// ...) the Network interface does not promise.
func (c *Cluster) Network() transport.Network { return c.net }

// OnPeerGone registers fn to run when a peer departs cleanly (goodbye
// handshake), on transports that report departures (the mesh); a no-op
// elsewhere. The SPMD runtime (internal/core) and tests use it to wire
// departure-aware membership pruning — protocol.Node.PeerGone and
// dlock.Service.PeerGone — to the transport's notification, so a clean
// leave stops costing one failed send per relay.
func (c *Cluster) OnPeerGone(fn func(peer msg.NodeID, err error)) {
	if gn, ok := c.net.(transport.PeerGoneNotifier); ok {
		gn.OnPeerGone(fn)
	}
}

// Close shuts down the cluster (this process's node, in mesh shape)
// and waits for all local dispatchers to exit. On the mesh transport
// this is a graceful departure: the goodbye handshake drains
// everything already sent, so peers mark this node departed
// (transport.PeerGoneOf) instead of latching it as dead — unless a
// Kill has begun, which Close then joins.
func (c *Cluster) Close() { c.shutdown(false) }

// Kill tears this member down abruptly — no goodbye — so remote peers
// observe wire death (transport.PeerDownOf) exactly as if the
// process had crashed. Falls back to Close on transports without an
// abrupt path. This is the chaos/test hook.
func (c *Cluster) Kill() { c.shutdown(true) }

// shutdown closes the kernels, so no handler is left to hit a send
// error, and then the wire. A Kill is marked before the kernels close:
// a member whose Run ends on their close and reaches Close before the
// wire dies must not say goodbye.
func (c *Cluster) shutdown(kill bool) {
	if kill {
		c.killed.Store(true)
	}
	for _, k := range c.kernels {
		if k != nil {
			k.Close()
		}
	}
	if killer, ok := c.net.(interface{ Kill() error }); ok && c.killed.Load() {
		killer.Kill()
	} else {
		c.net.Close()
	}
	for _, k := range c.kernels {
		if k != nil {
			k.Wait()
		}
	}
}

// HomeOf maps an object/lock identifier to its home node by simple
// modular hashing — the static distribution the paper's prototype used
// for directory and lock management.
func HomeOf(id uint64, nodes int) msg.NodeID {
	return msg.NodeID(id % uint64(nodes))
}
