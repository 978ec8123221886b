// Package core assembles the Munin runtime: a cluster with a per-node
// Munin server (internal/protocol), the distributed lock service
// (internal/dlock), and the Presto-like thread layer (internal/threads),
// exposed through the DSM interface in internal/api.
//
// This is the system the paper describes in §3.1: software coherence
// control over a message-passing substrate, with type-specific protocol
// selection per object and delayed updates flushed at synchronization
// points.
//
// # One program, any cluster
//
// The same program runs in two shapes, selected by Config alone:
//
//   - In-process (Config.Nodes): every node of the simulated cluster
//     lives in this process, connected by the chan or loopback-TCP
//     transport. Run spawns the whole thread team.
//   - SPMD over the mesh (Config.Topology): this process is ONE member
//     of a multi-process cluster. Every process executes the identical
//     program; Alloc/NewLock/NewBarrier/NewAtomic assign identical IDs
//     in every process from program order alone (no coordinator — each
//     member installs its own view locally, and a setup digest checked
//     at the Run gate fails fast on divergent setup code, see gate.go);
//     Run spawns only the threads placed on this member's node and
//     doubles as a cluster-wide barrier, entering and leaving together
//     in every process. Locks, barriers and atomics ride vkernel calls
//     over the mesh to their home members exactly as they ride the
//     in-process transports.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"munin/internal/api"
	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/protocol"
	"munin/internal/threads"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// Config configures a Munin system.
type Config struct {
	// Nodes is the number of simulated processors (>= 1). Ignored when
	// Topology is set (the topology defines the cluster size).
	Nodes int
	// Transport selects "chan" (default) or "tcp". Ignored when
	// Topology is set.
	Transport string
	// Cost is the network cost model (zero = free, fast for tests;
	// transport.DefaultCostModel() for paper-like accounting).
	Cost transport.CostModel
	// Placement maps thread IDs to nodes; nil = round robin. Every
	// member of a mesh cluster must use the same placement (it decides
	// which process runs which thread).
	Placement threads.Placement
	// Topology, when non-nil, makes this process one SPMD member of a
	// multi-process cluster: it binds the topology's self address, runs
	// only its own node's kernel/protocol/locks, executes only its own
	// share of every Run's thread team, and reaches the other members
	// over real TCP connections. Every process of the cluster must run
	// the identical program with the same topology (different Self).
	Topology *transport.Topology
	// Reconnect, when non-nil, overrides the topology's
	// reconnect-after-latch policy (mesh shape only).
	Reconnect *transport.ReconnectPolicy
	// Recover marks this process as the restarted incarnation of a
	// member rejoining a running cluster (mesh shape only, requires an
	// enabled reconnect policy, and node 0 — the gate rendezvous —
	// cannot recover). The member's first Run replaces its enter gate
	// with the recovery handshake: re-announce allocations to every
	// peer, resync the run-gate sequence with node 0, and only then
	// unblock shared-memory access (reads re-prime lazily via the
	// ordinary fault path). See internal/protocol/recovery.go.
	Recover bool
	// ReadMostlyLease routes read-mostly objects through the Tardis-style
	// lease engine instead of the directory machine: reads are served
	// from leased local replicas, writes bump a logical version at the
	// home with no invalidation multicast. Per-object Options.Engine
	// still overrides. Every SPMD member must set it identically (the
	// setup digest folds the resolved engine, so divergence fails the
	// run gate).
	ReadMostlyLease bool
}

// System is a running Munin instance. It implements api.System.
type System struct {
	cfg    Config
	clu    *cluster.Cluster
	locks  []*dlock.Service // mesh shape: only the self slot is non-nil
	nodes  []*protocol.Node // mesh shape: only the self slot is non-nil
	self   msg.NodeID       // mesh shape only; -1 in-process
	nnodes int

	mu      sync.Mutex
	nextObj memory.ObjectID
	nextLck uint32
	nextBar uint32
	nextAtm uint32
	closed  bool

	// regions maps RegionID -> ObjectID. It is append-only: Alloc (under
	// mu) writes the next element past the published length and then
	// publishes the longer slice, so objectOf reads it without a lock.
	regions atomic.Pointer[[]memory.ObjectID]

	// Setup digest: a running hash + count over every allocation the
	// program has made, identical across SPMD members when their setup
	// code is identical. The run gate exchanges it to fail fast on
	// divergence (see gate.go).
	setupSum uint64
	setupN   int

	// Run-gate state (mesh shape; gates/lostPeers meaningful on node 0
	// only).
	gateSeq   uint64
	gateMu    sync.Mutex
	gates     map[uint64]*gateInfo
	lostPeers map[msg.NodeID]error
	// downPeers are members whose wire died while a reconnect policy
	// is enabled: presumed to be restarting, so parked gates wait for
	// their recovered incarnation instead of failing (gatePeerDown).
	// Also under gateMu.
	downPeers map[msg.NodeID]error

	// recoverable is set in mesh shape when the reconnect policy is
	// enabled: a crashed peer may come back, so gates wait out an
	// outage instead of failing.
	recoverable bool
	// recoverPending arms the recovery handshake: the first Run of a
	// Config.Recover member consumes it (see RunErr).
	recoverPending atomic.Bool

	threadSeq atomic.Int64
}

var _ api.System = (*System)(nil)

// New builds and starts a Munin system: the whole simulated cluster
// in-process, or — with cfg.Topology set — this process's member of a
// multi-process SPMD cluster.
func New(cfg Config) (*System, error) {
	if cfg.Topology != nil {
		return newMeshMember(cfg)
	}
	if cfg.Recover {
		return nil, fmt.Errorf("munin: Config.Recover requires mesh shape (Config.Topology)")
	}
	clu, err := cluster.New(cluster.Config{
		Nodes: cfg.Nodes, Transport: cfg.Transport, Cost: cfg.Cost,
	})
	if err != nil {
		return nil, err
	}
	s := newSystem(cfg, clu, -1, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		k := clu.Kernel(msg.NodeID(i))
		ls := dlock.NewService(k)
		s.locks[i] = ls
		s.nodes[i] = protocol.NewNode(k, ls)
	}
	return s, nil
}

// newMeshMember assembles one SPMD member: the self node's kernel, lock
// service and protocol server, with departure-aware membership pruning
// and the run-gate handler wired up.
func newMeshMember(cfg Config) (*System, error) {
	rp := cfg.Topology.Reconnect
	if cfg.Reconnect != nil {
		rp = *cfg.Reconnect
	}
	if cfg.Recover {
		if !rp.Enabled {
			return nil, fmt.Errorf("munin: Config.Recover requires an enabled reconnect policy")
		}
		if cfg.Topology.Self == 0 {
			return nil, fmt.Errorf("munin: node 0 (the run-gate rendezvous) cannot recover")
		}
	}
	clu, err := cluster.New(cluster.Config{
		Topology: cfg.Topology, Reconnect: cfg.Reconnect, Cost: cfg.Cost,
	})
	if err != nil {
		return nil, err
	}
	self := cfg.Topology.Self
	s := newSystem(cfg, clu, self, cfg.Topology.Nodes())
	s.recoverable = rp.Enabled
	k := clu.Kernel(self)
	ls := dlock.NewService(k)
	node := protocol.NewNode(k, ls)
	s.locks[self] = ls
	s.nodes[self] = node
	// The run gate verifies every member's setup digest; a rejoining
	// member's recovery announce is verified against the same digest
	// (protocol.handleRecover).
	node.SetSetupDigest(func() (uint64, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.setupSum, s.setupN
	})
	// A member that departs cleanly (goodbye) is pruned from this
	// member's directory copy sets, producer/consumer caches, and
	// home-side lock queues, so a clean leave stops costing one failed
	// send per relay — and any gate still waiting on it fails with a
	// member-lost verdict instead of hanging every survivor's Run.
	clu.OnPeerGone(func(peer msg.NodeID, err error) {
		node.PeerGone(peer)
		ls.PeerGone(peer)
		s.gatePeerLost(peer, err)
	})
	// Wire death is terminal only without a reconnect policy: with one
	// enabled, the peer is presumed to be restarting, so gates wait
	// out the outage (gatePeerDown) and a completed rejoin handshake
	// clears the down mark (gatePeerBack) before any frame from the
	// fresh connection arrives. Either way the read faults this member
	// forwarded to the peer as their objects' owner are refused.
	if pd, ok := clu.Network().(transport.PeerDownNotifier); ok {
		pd.OnPeerDown(func(peer msg.NodeID, _ uint64, err error) {
			node.PeerDown(peer)
			s.gatePeerDown(peer, err)
		})
	}
	if pr, ok := clu.Network().(transport.PeerReconnectNotifier); ok {
		pr.OnPeerReconnect(func(peer msg.NodeID, _ uint64) {
			s.gatePeerBack(peer)
		})
	}
	if cfg.Recover {
		// Block shared-memory access until the recovery handshake in
		// the first Run completes — a recovering member must never
		// serve pre-crash bytes.
		node.BeginRecovery()
		s.recoverPending.Store(true)
	}
	vkernel.HandleCalls(k, kindRunGate, s, gateCalls[:])
	// Only now may the kernel dispatch: a peer that came up earlier has
	// been able to send its first gate arrival since the listener was
	// bound, and it must find this handler, not an unbound kind.
	clu.Start()
	return s, nil
}

func newSystem(cfg Config, clu *cluster.Cluster, self msg.NodeID, nnodes int) *System {
	return &System{
		cfg: cfg, clu: clu, self: self, nnodes: nnodes,
		locks: make([]*dlock.Service, nnodes), nodes: make([]*protocol.Node, nnodes),
		nextObj: 1, nextLck: 1, nextBar: 1, nextAtm: 1,
		setupSum: fnvOffset,
		gates:    make(map[uint64]*gateInfo),
	}
}

// Name implements api.System.
func (s *System) Name() string { return "munin" }

// Nodes implements api.System: the whole cluster's size — for a mesh
// member, not just this process's share.
func (s *System) Nodes() int { return s.nnodes }

// Self returns this process's node ID in mesh shape, or -1 when every
// node lives in this process.
func (s *System) Self() int { return int(s.self) }

// Alloc implements api.System: creates one shared object with the given
// annotation, cluster-wide. Must run before worker threads start.
//
// Object IDs are assigned from program order alone, so allocation needs
// no coordinator and sends no message in either shape: every node that
// lives in this process installs its own view of the object — all of
// them in node order in-process, the self node in mesh shape, where
// every member executes the same setup code. The run gate's setup
// digest (folded here over the allocation's identity, options and
// initial contents) catches members whose setup diverged.
func (s *System) Alloc(name string, size int, hint protocol.Annotation, opts protocol.Options, init []byte) api.RegionID {
	s.mu.Lock()
	id := s.nextObj
	s.nextObj++
	var regions []memory.ObjectID
	if p := s.regions.Load(); p != nil {
		regions = *p
	}
	region := api.RegionID(len(regions))
	regions = append(regions, id)
	s.regions.Store(&regions)
	s.mu.Unlock()

	if hint == protocol.Migratory && opts.Lock == 0 {
		// Allocate a dedicated lock for the migratory object if the
		// caller didn't associate one. Deterministic too: the lock
		// counter advances in program order like everything else.
		opts.Lock = s.NewLock()
	}
	if hint == protocol.ReadMostly && opts.Engine == protocol.EngineDefault && s.cfg.ReadMostlyLease {
		opts.Engine = protocol.EngineLease
	}
	s.recordSetup("alloc", name, size, uint8(hint),
		int64(opts.Home), uint32(opts.Lock), uint8(opts.Update),
		opts.Dynamic, opts.ForceReplicated, uint8(opts.Engine), len(init))
	s.recordSetupRaw(init)
	meta := protocol.Meta{ID: id, Name: name, Size: size, Annot: hint, Opts: opts}
	for _, n := range s.nodes {
		if n != nil {
			n.InstallLocal(meta, init)
		}
	}
	return region
}

// objectOf maps a region back to its object ID.
func (s *System) objectOf(r api.RegionID) memory.ObjectID {
	if p := s.regions.Load(); p != nil && uint(r) < uint(len(*p)) {
		return (*p)[r]
	}
	panic(fmt.Sprintf("munin: unknown region %d", r))
}

// NewLock implements api.System. IDs are assigned from program order —
// deterministic across SPMD members, like Alloc.
func (s *System) NewLock() dlock.LockID {
	s.mu.Lock()
	id := dlock.LockID(s.nextLck)
	s.nextLck++
	s.mu.Unlock()
	s.recordSetup("lock", uint32(id))
	return id
}

// NewBarrier implements api.System.
func (s *System) NewBarrier() dlock.BarrierID {
	s.mu.Lock()
	id := dlock.BarrierID(s.nextBar)
	s.nextBar++
	s.mu.Unlock()
	s.recordSetup("barrier", uint32(id))
	return id
}

// NewAtomic implements api.System.
func (s *System) NewAtomic() dlock.AtomicID {
	s.mu.Lock()
	id := dlock.AtomicID(s.nextAtm)
	s.nextAtm++
	s.mu.Unlock()
	s.recordSetup("atomic", uint32(id))
	return id
}

// Run implements api.System: SPMD over the cluster. Each thread gets
// its own delayed update queue, flushed at every synchronization
// operation and at thread exit.
//
// In mesh shape Run is placement-aware and doubles as a cluster-wide
// barrier: this process spawns only the threads placed on its own node,
// and no member's Run starts its threads before every member has called
// Run (the enter gate, which also verifies the setup digest) or returns
// before every member's threads have finished (the exit gate). Run
// panics with a *SetupDivergenceError if the members' setup code
// diverged; RunErr is the error-returning form.
func (s *System) Run(nthreads int, body func(c api.Ctx)) {
	if err := s.RunErr(nthreads, body); err != nil {
		panic(err)
	}
}

// RunErr is Run with an error return instead of a panic for gate
// failures: setup divergence (*SetupDivergenceError), or a member lost
// while waiting at the gate — always the verdict "run gate N: member M
// lost: cause", whether node 0 reports a third member or a member's own
// gate call finds node 0 gone; on the member that observed the loss
// itself errors.As finds the typed *transport.ErrPeerDown /
// ErrPeerGone. Panics from thread bodies still propagate as panics.
func (s *System) RunErr(nthreads int, body func(c api.Ctx)) error {
	run := func(t *threads.Thread) {
		c := &Ctx{
			sys:    s,
			thread: t,
			node:   s.nodes[t.Node],
			locks:  s.locks[t.Node],
			queue:  duq.New(),
		}
		c.node.Attach(c.queue)
		defer c.node.Detach(c.queue)
		defer c.exit()
		body(c)
	}
	if s.self < 0 {
		threads.SPMD(s.nnodes, nthreads, s.cfg.Placement, run)
		return nil
	}
	if s.recoverPending.CompareAndSwap(true, false) {
		// A recovering member's first Run replaces its enter gate with
		// the recovery handshake: the survivors' matching enter gate
		// completed long ago (with this member's dead incarnation),
		// and the gate resync aligns this process's sequence so its
		// exit arrival pairs with theirs.
		if err := s.recover(); err != nil {
			return err
		}
	} else if err := s.runGate(nthreads); err != nil {
		return err
	}
	threads.SPMDLocal(s.self, s.nnodes, nthreads, s.cfg.Placement, run)
	return s.runGate(nthreads)
}

// recover replays the recovery handshake for a Config.Recover member:
// re-announce this member's allocations to every peer (each survivor
// verifies them against its own and rebuilds its copy sets, ownership
// and lock queues for this node), resync the run-gate sequence with
// node 0, and release the blocked shared-memory accessors. Replicas
// re-prime lazily afterwards via the ordinary read-fault path.
func (s *System) recover() error {
	node := s.nodes[s.self]
	s.mu.Lock()
	sum, n := s.setupSum, s.setupN
	s.mu.Unlock()
	if err := node.RecoverAnnounce(sum, n); err != nil {
		return err
	}
	if err := s.resyncGate(); err != nil {
		return err
	}
	node.FinishRecovery()
	return nil
}

// Messages implements api.System. In mesh shape the count covers this
// process's wire traffic only (each member accounts its own).
func (s *System) Messages() int64 { return s.clu.Stats().Messages() }

// Bytes implements api.System.
func (s *System) Bytes() int64 { return s.clu.Stats().Bytes() }

// Stats exposes the underlying network accounting (modeled time,
// per-class counts) for the benchmark harness.
func (s *System) Stats() *transport.Stats { return s.clu.Stats() }

// mustLocal guards the per-node accessors: in mesh shape only the self
// node's state exists in this process.
func (s *System) mustLocal(i int) int {
	if i < 0 || i >= s.nnodes || s.nodes[i] == nil {
		panic(fmt.Sprintf("munin: node %d runs in another process (this one is %d)", i, s.self))
	}
	return i
}

// NodeCounters returns node i's protocol counters snapshot.
func (s *System) NodeCounters(i int) map[string]int64 { return s.nodes[s.mustLocal(i)].C.Snapshot() }

// LockService returns node i's lock service (for experiments that
// measure the proxy benefit directly).
func (s *System) LockService(i int) *dlock.Service { return s.locks[s.mustLocal(i)] }

// ProtocolNode returns node i's Munin server (used by the sharing-study
// tracer and white-box tests).
func (s *System) ProtocolNode(i int) *protocol.Node { return s.nodes[s.mustLocal(i)] }

// Close implements api.System.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.clu.Close()
}

// Ctx is one thread's handle to the Munin system. It implements api.Ctx,
// and api's word methods (ReadWord, WriteWord).
type Ctx struct {
	sys    *System
	thread *threads.Thread
	node   *protocol.Node
	locks  *dlock.Service
	queue  *duq.Queue
	// table is the thread's translation table, indexed by RegionID (see
	// lookup). It grows on demand and belongs to this thread alone.
	table []xlate
	// word is the staging buffer the word methods hand to a row's read
	// or write: a buffer on the stack would escape through the row's
	// indirect call and cost an allocation per access.
	word [8]byte
}

// xlate is one region's entry in a thread's translation table: what the
// region resolves to on the thread's node, valid while the node's
// translation generation is still gen (protocol.Node.Gen).
type xlate struct {
	gen uint64
	obj *protocol.Obj
	// view is obj's published write-once snapshot, or "" while it has
	// none; a read of it needs neither the object nor its row.
	view string
}

var _ api.Ctx = (*Ctx)(nil)

// ThreadID implements api.Ctx.
func (c *Ctx) ThreadID() int { return c.thread.ID }

// NThreads implements api.Ctx.
func (c *Ctx) NThreads() int { return c.thread.NThreads }

// Node implements api.Ctx.
func (c *Ctx) Node() int { return int(c.thread.Node) }

// lookup returns r's translation: one load of the node's generation
// when the thread has it cached, a resolution through objectOf and the
// node's object table when not — which panics on an unknown region or
// object, as an access always has.
func (c *Ctx) lookup(r api.RegionID) *xlate {
	if uint(r) < uint(len(c.table)) {
		if e := &c.table[r]; e.gen == c.node.Gen() {
			return e
		}
	}
	return c.fill(r)
}

// fill resolves r and caches the object. It caches no view: the access
// that missed runs the object's row, which is where it waits out a
// recovery, and only then may ReadWord pick the view up. The generation
// is loaded first, so a retract that follows the object's or the view's
// load also moves the generation past the entry's.
func (c *Ctx) fill(r api.RegionID) *xlate {
	id := c.sys.objectOf(r)
	if int(r) >= len(c.table) {
		c.table = append(c.table, make([]xlate, len(*c.sys.regions.Load())-len(c.table))...)
	}
	e := &c.table[r]
	e.gen = c.node.Gen()
	e.obj = c.node.Object(id)
	e.view = ""
	return e
}

// Read implements api.Ctx.
func (c *Ctx) Read(r api.RegionID, off int, buf []byte) {
	c.node.ReadObj(c.queue, c.lookup(r).obj, off, buf)
}

// Write implements api.Ctx.
func (c *Ctx) Write(r api.RegionID, off int, data []byte) {
	c.node.WriteObj(c.queue, c.lookup(r).obj, off, data)
}

// ReadWord reads the size-byte (4 or 8) big-endian word at off; api's
// typed helpers (ReadU64, ReadU32, ...) come here. A word of a cached
// write-once view is read straight out of it. Every other read runs the
// object's row on the cached handle, with every check Read makes, and
// then caches the object's view if it has one by now.
func (c *Ctx) ReadWord(r api.RegionID, off, size int) uint64 {
	var e *xlate
	if uint(r) < uint(len(c.table)) && c.table[r].gen == c.node.Gen() {
		e = &c.table[r] // lookup's hit, by hand: lookup is too big to inline
	} else {
		e = c.fill(r)
	}
	if s := e.view; off >= 0 && off <= len(s)-size {
		c.node.CountRead(c.queue)
		if size == 8 {
			s = s[off : off+8]
			return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
				uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
		}
		s = s[off : off+4]
		return uint64(s[0])<<24 | uint64(s[1])<<16 | uint64(s[2])<<8 | uint64(s[3])
	}
	b := c.word[:size]
	c.node.ReadObj(c.queue, e.obj, off, b)
	if e.view == "" {
		e.view = e.obj.View()
	}
	if size == 8 {
		return binary.BigEndian.Uint64(b)
	}
	return uint64(binary.BigEndian.Uint32(b))
}

// WriteWord writes v as the size-byte (4 or 8) big-endian word at off,
// through the object's row on the cached handle; api's typed helpers
// (WriteU64, WriteU32, ...) come here.
func (c *Ctx) WriteWord(r api.RegionID, off, size int, v uint64) {
	e := c.lookup(r)
	b := c.word[:size]
	if size == 8 {
		binary.BigEndian.PutUint64(b, v)
	} else {
		binary.BigEndian.PutUint32(b, uint32(v))
	}
	c.node.WriteObj(c.queue, e.obj, off, b)
}

// Acquire implements api.Ctx: flush, then take the distributed lock.
// Flushing before acquire keeps this thread's prior updates ordered
// before anything it does inside the critical section.
func (c *Ctx) Acquire(l dlock.LockID) {
	c.node.FlushQueue(c.queue)
	c.locks.Acquire(l)
}

// Release implements api.Ctx: flush, then release. The flush is what
// combines "data motion with synchronization": updates made inside the
// critical section are guaranteed visible before the next lock holder
// proceeds.
func (c *Ctx) Release(l dlock.LockID) {
	c.node.FlushQueue(c.queue)
	c.locks.Release(l)
}

// Barrier implements api.Ctx: flush, then wait for n participants.
func (c *Ctx) Barrier(b dlock.BarrierID, n int) {
	c.node.FlushQueue(c.queue)
	c.locks.BarrierWait(b, n)
}

// FetchAdd implements api.Ctx: flush (it is a synchronization op), then
// atomically add.
func (c *Ctx) FetchAdd(a dlock.AtomicID, delta int64) int64 {
	c.node.FlushQueue(c.queue)
	return c.locks.FetchAdd(a, delta)
}

// Flush implements api.Ctx.
func (c *Ctx) Flush() { c.node.FlushQueue(c.queue) }

// Evict drops this node's replica of a region (write-once pageout).
func (c *Ctx) Evict(r api.RegionID) { c.node.Evict(c.sys.objectOf(r)) }

// exit flushes the delayed update queue one final time ("whenever a
// thread synchronizes, including during thread exit").
func (c *Ctx) exit() { c.node.FlushQueue(c.queue) }
