package lockrank

// The ranks, in hierarchy order. Each is an empty struct whose level
// method places it; the method is unexported, so this file is the only
// place a rank can be declared. A goroutine may take a lock only while
// every lock it holds has a lower level, so two ranks on one level never
// nest. Levels leave gaps for ranks yet to come.
//
// Fences and front doors come first: they are held across whole rounds,
// so everything else nests inside them. A flush takes the flush locks of
// every object it drained (ObjPush) and keeps them across the merge of
// the objects homed locally, which takes their DirRelay; no handler
// takes an ObjPush, so the order is never reversed.

// ObjPush ranks protocol.Obj.pushMu, a delayed-update object's flush
// fence. It is held until the flush is acknowledged.
type ObjPush struct{}

func (ObjPush) level() level { return level{8, true} }

// DirRelay ranks protocol.dirEntry.relayMu, the home's relay fence. It
// is held across the stamp, relay and acknowledgement of an update.
type DirRelay struct{}

func (DirRelay) level() level { return level{10, true} }

// CoreSystem ranks core.System.mu (allocation and close).
type CoreSystem struct{}

func (CoreSystem) level() level { return level{10, false} }

// CoreGate ranks core.System.gateMu (the SPMD run gate's table).
type CoreGate struct{}

func (CoreGate) level() level { return level{10, false} }

// IvySystem ranks ivy.System.mu (the Ivy baseline's region table).
type IvySystem struct{}

func (IvySystem) level() level { return level{10, false} }

// Protocol directory and object state: the home holds DirEntry across an
// ownership round, including its remote invalidations and forwards, and
// changes objects (Obj) inside it. The remote handlers for those
// messages never call back into the home's directory, so the hold
// cannot cycle. Object lookups take no lock; ObjTable serializes
// installs only.

// DirEntry ranks protocol.dirEntry.mu, the home's directory record.
type DirEntry struct{}

func (DirEntry) level() level { return level{14, true} }

// ObjTable ranks protocol.objTable.mu (installs into the object table).
type ObjTable struct{}

func (ObjTable) level() level { return level{16, false} }

// Obj ranks protocol.Obj.mu, one node's copy of an object.
type Obj struct{}

func (Obj) level() level { return level{18, false} }

// The lock service: the local proxy is pinned first, then the service's
// table; home-side per-primitive state never nests with either.

// LockProxy ranks dlock.proxy.mu.
type LockProxy struct{}

func (LockProxy) level() level { return level{20, false} }

// LockService ranks dlock.Service.mu.
type LockService struct{}

func (LockService) level() level { return level{22, false} }

// LockHome ranks dlock.homeState.mu.
type LockHome struct{}

func (LockHome) level() level { return level{24, false} }

// BarrierHome ranks dlock.barrierState.mu.
type BarrierHome struct{}

func (BarrierHome) level() level { return level{24, false} }

// AtomicHome ranks dlock.atomicState.mu.
type AtomicHome struct{}

func (AtomicHome) level() level { return level{24, false} }

// CondHome ranks dlock.condState.mu.
type CondHome struct{}

func (CondHome) level() level { return level{24, false} }

// Transport: per-peer state, then the network registry, then the queues,
// which every layer above reaches through Send and Call.

// MeshPeer ranks transport.meshPeer.mu.
type MeshPeer struct{}

func (MeshPeer) level() level { return level{30, false} }

// MeshNetwork ranks transport.MeshNetwork.mu.
type MeshNetwork struct{}

func (MeshNetwork) level() level { return level{32, false} }

// SendQueue ranks transport.sendQueue.mu.
type SendQueue struct{}

func (SendQueue) level() level { return level{34, false} }

// RecvQueue ranks transport.queue.mu.
type RecvQueue struct{}

func (RecvQueue) level() level { return level{34, false} }

// Leaves: the vkernel pending-call table, then locks that nest nothing.

// Kernel ranks vkernel.Kernel.mu.
type Kernel struct{}

func (Kernel) level() level { return level{40, false} }

// StatsSet ranks stats.Set.mu, taken only to bind a counter struct or
// make a counter by name.
type StatsSet struct{}

func (StatsSet) level() level { return level{50, false} }

// StatsCounter ranks stats.Counter.mu, taken to attach, fold and read
// the per-thread cells.
type StatsCounter struct{}

func (StatsCounter) level() level { return level{50, false} }

// NodeDigest ranks protocol.Node.digestMu.
type NodeDigest struct{}

func (NodeDigest) level() level { return level{50, false} }

// Tracer ranks study.Tracer.mu.
type Tracer struct{}

func (Tracer) level() level { return level{50, false} }

// Trace ranks study.objTrace.mu.
type Trace struct{}

func (Trace) level() level { return level{50, false} }

// Pacer ranks bench.pacer.mu, the in-process experiments' turn barrier.
type Pacer struct{}

func (Pacer) level() level { return level{50, false} }
