// Package munin is a from-scratch implementation of Munin, the
// distributed shared memory (DSM) system with type-specific memory
// coherence described in:
//
//	J.K. Bennett, J.B. Carter, W. Zwaenepoel.
//	"Munin: Distributed Shared Memory Based on Type-Specific Memory
//	Coherence". PPoPP 1990.
//
// Munin runs shared-memory programs on a distributed-memory machine by
// choosing a coherence protocol per shared object, driven by a semantic
// annotation the programmer supplies at allocation: write-once objects
// replicate; write-many objects buffer updates in a per-thread delayed
// update queue and ship combined diffs at synchronization points;
// migratory objects ride inside lock-transfer messages; producer-
// consumer objects are pushed eagerly to their consumers; result
// objects merge at a collector; and so on (see internal/protocol).
//
// The distributed machine is simulated: nodes share nothing and
// communicate only through counted, serialized messages, so the traffic
// numbers the benchmarks report mean what they would on real hardware
// of the paper's era. An Ivy-style strict page-based DSM (the paper's
// principal point of comparison) and hand-coded message-passing
// baselines are included.
//
// # Quick start
//
//	sys, _ := munin.New(munin.Config{Nodes: 4})
//	defer sys.Close()
//	counter := sys.Alloc("counter", 8, munin.Conventional, munin.DefaultOptions(), nil)
//	lock := sys.NewLock()
//	sys.Run(8, func(c munin.Ctx) {
//	    c.Acquire(lock)
//	    munin.WriteU64(c, counter, 0, munin.ReadU64(c, counter, 0)+1)
//	    c.Release(lock)
//	})
//
// # One program, any cluster
//
// The same program also runs as one SPMD member of a multi-process
// cluster — the paper's actual machine shape — selected by configuration
// alone. Give every process the same program and the same topology
// (differing only in Self), and each process executes its own share of
// every Run's thread team while locks, barriers and shared objects span
// the processes over real TCP:
//
//	topo, _ := munin.ParsePeers("0=10.0.0.1:7000,1=10.0.0.2:7000", self)
//	sys, _ := munin.New(munin.Config{Topology: &topo})
//	// ...the rest of the program is IDENTICAL to the in-process form.
//
// Allocations need no coordinator: every member executes the same setup
// code, so Alloc/NewLock/NewBarrier/NewAtomic assign identical IDs from
// program order alone, and Run — which doubles as a cluster-wide
// barrier — exchanges a setup digest that fails fast with a typed
// *SetupDivergenceError if the members' setup code ever diverges.
package munin

import (
	"munin/internal/api"
	"munin/internal/core"
	"munin/internal/dlock"
	"munin/internal/ivy"
	"munin/internal/msg"
	"munin/internal/protocol"
	"munin/internal/transport"
)

// Config configures a Munin system. See core.Config.
type Config = core.Config

// System is a running Munin DSM instance.
type System = core.System

// IvyConfig configures the Ivy baseline system.
type IvyConfig = ivy.Config

// IvySystem is a running Ivy (strict page-based DSM) instance.
type IvySystem = ivy.System

// DSM is the interface both systems satisfy; application code written
// against it runs unchanged on either.
type DSM = api.System

// Ctx is a thread's handle to shared memory and synchronization.
type Ctx = api.Ctx

// RegionID names an allocated shared region.
type RegionID = api.RegionID

// Annotation is the per-object semantic hint selecting the coherence
// mechanism (the paper's type-specific declaration).
type Annotation = protocol.Annotation

// The access-pattern annotations (paper Section 2 / §3.3).
const (
	Conventional     = protocol.Conventional
	WriteOnce        = protocol.WriteOnce
	WriteMany        = protocol.WriteMany
	ProducerConsumer = protocol.ProducerConsumer
	Migratory        = protocol.Migratory
	Result           = protocol.Result
	Private          = protocol.Private
	ReadMostly       = protocol.ReadMostly
	GeneralRW        = protocol.GeneralRW
)

// Options tunes per-object protocol behaviour (home placement,
// associated lock for migratory data, refresh vs invalidate for
// replicated read-mostly objects, dynamic adaptation, diff folding).
type Options = protocol.Options

// UpdateMode selects refresh vs invalidate for replicated read-mostly
// objects; write-many updates always refresh.
type UpdateMode = protocol.UpdateMode

// Update modes (§3.4.2).
const (
	Refresh    = protocol.Refresh
	Invalidate = protocol.Invalidate
)

// Synchronization object identifiers.
type (
	LockID    = dlock.LockID
	BarrierID = dlock.BarrierID
	AtomicID  = dlock.AtomicID
)

// CostModel charges messages with modeled network time.
type CostModel = transport.CostModel

// NodeID identifies a node (processor) in the cluster.
type NodeID = msg.NodeID

// Topology describes a multi-process cluster: this process's node ID
// plus every node's listen address. Set Config.Topology to run one
// member of such a cluster instead of the in-process simulation.
type Topology = transport.Topology

// ReconnectPolicy is the mesh's opt-in reconnect-after-latch policy
// (Topology.Reconnect / Config.Reconnect).
type ReconnectPolicy = transport.ReconnectPolicy

// SetupDivergenceError is returned (RunErr) or panicked (Run) in every
// member of a mesh cluster whose processes did not execute identical
// setup code — the deterministic-allocation contract was broken.
type SetupDivergenceError = core.SetupDivergenceError

// ParsePeers builds a validated topology from the flag form
// "0=host:port,1=host:port,..." plus this process's node ID.
func ParsePeers(spec string, self NodeID) (Topology, error) { return transport.ParsePeers(spec, self) }

// LoadTopology reads and validates a topology JSON file:
// {"self": 1, "peers": {"0": "10.0.0.1:7000", "1": "10.0.0.2:7000"}}.
func LoadTopology(path string) (Topology, error) { return transport.LoadTopology(path) }

// New builds and starts a Munin system: the whole cluster in-process
// (Config.Nodes), or this process's SPMD member of a multi-process
// cluster (Config.Topology).
func New(cfg Config) (*System, error) { return core.New(cfg) }

// NewIvy builds and starts the Ivy baseline.
func NewIvy(cfg IvyConfig) (*IvySystem, error) { return ivy.New(cfg) }

// DefaultOptions returns zero-configuration per-object options.
func DefaultOptions() Options { return protocol.DefaultOptions() }

// DefaultCostModel approximates the paper's 10 Mbit/s Ethernet with
// 1 ms small-message latency.
func DefaultCostModel() CostModel { return transport.DefaultCostModel() }

// Typed access helpers (see internal/api).
var (
	ReadU64  = api.ReadU64
	WriteU64 = api.WriteU64
	ReadI64  = api.ReadI64
	WriteI64 = api.WriteI64
	ReadF64  = api.ReadF64
	WriteF64 = api.WriteF64
	ReadU32  = api.ReadU32
	WriteU32 = api.WriteU32
)
