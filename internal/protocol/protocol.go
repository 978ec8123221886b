// Package protocol implements Munin's type-specific memory coherence:
// the shared-object model, the per-object directory, and one coherence
// mechanism per access-pattern annotation (paper §3.3):
//
//	WriteOnce          replication on demand; copies are frozen snapshots read
//	                   without a lock; pageout supported
//	WriteMany          delayed updates (dirty set + spans through the DUQ)
//	ProducerConsumer   eager object movement (direct multicast to consumers)
//	Migratory          object rides inside lock-transfer messages
//	Result             buffered writes merged at a single home copy
//	Private            node-local, no coherence traffic
//	ReadMostly         remote load/store (§3.3.5 prototype choice), or
//	                   replicated: from install, or once the home sees
//	                   reads dominate (§3.4.1), which swaps the row
//	GeneralRW          ownership protocol: single writer, write-invalidate
//	Conventional       the same protocol — the default when no annotation
//	                   is given (§3.1)
//
// Each mechanism is a policy row (policy.go): the object's read and write
// methods plus the few protocol parameters the handlers branch on. Alloc
// picks an object's row once, from its annotation and Options.Engine, and
// nothing else looks at the annotation again. A read-mostly object has
// two directory rows, remote and replicated (replicatedRow): the home
// swaps the first for the second when reads dominate, and its remote
// loads' replies carry the swap to every reader. Read-mostly objects
// have a third row under the Tardis-style lease engine (lease.go).
//
// The two ownership annotations run one protocol in which an object's
// bytes cross the wire once, from the node that has them to the node
// that needs them, and the home relays none: the home keeps the
// directory (owner and copy set) and serialises faults; a read fault is
// forwarded to the owner, which answers the reader directly and stays
// owner (as in Li and Hudak's Ivy and in Berkeley — there is no
// write-back to the home); a write fault is forwarded to the old owner,
// which grants the writer directly — without data when the writer still
// holds a valid copy (handleWriteOwn).
//
// Every node runs one *Node (the paper's per-processor "Munin server").
// Application threads call Read/Write with their thread's delayed update
// queue; a miss suspends the thread and runs the protocol's fault
// handler, mirroring the paper's "suspend the faulting thread and invoke
// the associated server" discipline at object granularity.
//
// Flushes are batched and pipelined, and there is one flush path:
// FlushQueue plans the whole drained dirty set at once
// (duq.DrainInto/Commit), groups write-many and result diffs by home
// and producer-consumer pushes by consumer set into batch messages
// (kindDiffBatch/kindApplyBatch — a batch of one is the same message
// with one entry), starts every destination asynchronously on the
// transport's coalescing writer, fences once, and then awaits all
// acknowledgments — K dirty objects cost O(1) messages and O(1) wire
// writes per destination. A program that flushes after every write
// drives the same path at 2 messages per object, which is the "serial"
// baseline of bench E10/E11/E12/E14.
//
// On the multi-process mesh a destination can become unreachable
// mid-flush; the failure surfaces out of TryFlushQueue (and the fault
// handlers' panics) as a typed error rather than a hang —
// a peer-down error (transport.PeerDownOf) when the peer's wire died,
// a peer-gone error (transport.PeerGoneOf) when it departed cleanly via the goodbye
// handshake — because vkernel fails the pending acknowledgments the
// moment the transport latches the peer.
package protocol

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/lockrank"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/vkernel"
)

// Annotation is the semantic hint attached to a shared object at
// allocation — the paper's type-specific declaration.
type Annotation uint8

// The access-pattern annotations from Section 2 of the paper.
const (
	Conventional Annotation = iota // unannotated: Ivy-like default
	WriteOnce
	WriteMany
	ProducerConsumer
	Migratory
	Result
	Private
	ReadMostly
	GeneralRW
)

var annotNames = [...]string{
	"conventional", "write-once", "write-many", "producer-consumer",
	"migratory", "result", "private", "read-mostly", "general-rw",
}

func (a Annotation) String() string {
	if int(a) < len(annotNames) {
		return annotNames[a]
	}
	return fmt.Sprintf("annotation(%d)", uint8(a))
}

// UpdateMode selects how a replicated object's copies are brought up to
// date when it changes (paper §3.4.2).
type UpdateMode uint8

const (
	// Refresh propagates the new bytes to every copy.
	Refresh UpdateMode = iota
	// Invalidate drops remote copies; they refetch on next access.
	Invalidate
)

func (m UpdateMode) String() string {
	if m == Refresh {
		return "refresh"
	}
	return "invalidate"
}

// Options tune per-object protocol behaviour beyond the annotation.
type Options struct {
	// Home pins the object's home node. -1 (default) hashes the ID.
	// Result objects should be homed where the collector thread runs.
	Home msg.NodeID
	// Lock associates a migratory object with its guarding lock.
	Lock dlock.LockID
	// Update selects refresh vs invalidate for a replicated read-mostly
	// object: its home reads it when a remote write arrives. Write-many
	// relays always refresh and ignore it. Default Refresh.
	Update UpdateMode
	// Dynamic lets the runtime adapt the mechanism from observed
	// behaviour (§3.4): read-mostly objects switch from remote
	// load/store to replication when reads dominate.
	Dynamic bool
	// ForceReplicated starts a read-mostly object in replicated mode
	// instead of remote load/store — the static other half of the
	// §3.4.1 replication-vs-remote comparison.
	ForceReplicated bool
	// Engine selects the coherence engine for this object.
	// EngineDefault (zero) is the directory engine, which runs every
	// annotation. EngineLease is valid for read-mostly objects only.
	Engine EngineKind
}

// DefaultOptions returns the zero-configuration options.
func DefaultOptions() Options { return Options{Home: -1} }

// Meta is an object's cluster-wide metadata, identical on every node.
type Meta struct {
	ID    memory.ObjectID
	Name  string
	Size  int
	Annot Annotation
	Opts  Options
}

// CopyState is the validity state of a node's local copy.
type CopyState uint8

const (
	// Invalid: no usable local copy.
	Invalid CopyState = iota
	// Shared: valid for reading (and buffered writing under loose
	// protocols).
	Shared
	// Exclusive: this node owns the object and may write directly
	// (ownership protocols).
	Exclusive
)

func (s CopyState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	default:
		return "exclusive"
	}
}

// frozen is a write-once object's published snapshot (§3.3.1): bytes
// that will never change again, which a local read may therefore copy
// without o.mu and without writing any shared cache line. The snapshot
// is a string, so the representation — not a lock or a convention —
// rules every writer out: there is no way to store through what view
// returns, a reader that loaded the pointer keeps a valid snapshot
// whatever happens to the object afterwards, and a change of contents
// can only be a different string. publish and retract are called under
// o.mu; view is called anywhere.
type frozen struct{ p atomic.Pointer[string] }

// view returns the published bytes, or "" when nothing is published.
func (f *frozen) view() string {
	if s := f.p.Load(); s != nil {
		return *s
	}
	return ""
}

func (f *frozen) publish(s string) { f.p.Store(&s) }
func (f *frozen) retract()         { f.p.Store(nil) }

// retract withdraws o's snapshot and bumps the generation, so no thread
// goes on reading the snapshot from a cached translation. Every retract
// goes through here. Caller holds o.mu.
func (n *Node) retract(o *Obj) {
	o.snap.retract()
	n.gen.Add(1)
}

// Obj is one node's view of a shared object.
type Obj struct {
	mu   lockrank.Mutex[lockrank.Obj]
	cond *sync.Cond

	meta Meta
	// pol is the object's coherence protocol, one of the package's
	// policy rows, chosen at install from the annotation and engine.
	// §3.4.1's switch swaps it, once, from the read-mostly remote row
	// to replicatedRow.
	pol atomic.Pointer[policy]
	// data is the local copy. A write-once object has one only at its
	// home while it is being initialised: everywhere else, and at the
	// home from the first replica on, its bytes are snap and data is nil.
	data []byte
	// snap is the frozen form of a write-once object; other annotations
	// never publish. Under o.mu a valid write-once copy is exactly one
	// of data (home, initialising) and snap (everything else).
	snap frozen
	// dirty is the set of bytes this node's buffered writes have stored
	// in data since the last flush took it (delayed-update annotations).
	// Only storeBuffered adds to it and only takeDirty empties it, so an
	// update relayed or merged into data can never enter a flush.
	dirty memory.Dirty

	state    CopyState
	fetching bool   // a fetch/ownership request is in flight
	owning   bool   // an ownership request by this node is outstanding
	genInv   uint64 // bumped on each invalidation (fetch-race detection)

	// owns is set while this node holds ownership of an owned-row
	// object: its grant is installed (or, at the home, it never gave
	// ownership away) and no invalidation has taken it since. Read faults
	// are forwarded to this copy (it stays owner after serving them), so
	// it is never evicted.
	owns bool
	// epoch is the ownership period of the last grant installed here
	// (dirEntry.epoch); a forward for a later period parks until its
	// grant is (awaitGrant).
	epoch uint32
	// lost is set on a node the directory names owner when the home
	// refused its write fault because the old owner's wire died before
	// the grant came (refuse): the bytes, and perhaps a copy it still
	// reads, are with that owner. Every later fault on the object at
	// this node fails with it, and every fault forwarded here is
	// refused with it.
	lost error

	// Write-many / producer-consumer update ordering: home (or the
	// producer) stamps sequence numbers; receivers apply in order.
	applySeq  uint64                   // last update sequence applied
	pendApply map[uint64][]memory.Span // out-of-order updates parked

	// Producer-consumer producer-side state.
	consumers  []msg.NodeID // cached consumer set
	isProducer bool
	prodSeq    uint64 // producer's outgoing update sequence

	// pushMu is the flush lock of a delayed-update object: a flush holds
	// it from before it takes the dirty set until the update is
	// acknowledged, so this node's flushes of the object reach the home
	// (or the consumers) in the order they were captured, and a thread
	// whose bytes rode a co-located thread's flush cannot pass its own
	// sync point before that flush is acknowledged.
	pushMu lockrank.Mutex[lockrank.ObjPush]

	registered bool // consumer has registered with home

	// dir is the directory record, created on first use at the home
	// (dirEntryOf); nil on nodes that never acted as this object's home.
	dir atomic.Pointer[dirEntry]

	// Lease engine state (EngineLease only). The version of the cached
	// copy, and the node synchronization epoch its lease was granted
	// under: the lease is live while Node.syncEpoch still equals
	// leaseEpoch, and lapses — forcing a revalidation on next read —
	// the moment this node synchronizes. At the home the authoritative
	// version is applySeq; these fields stay zero there.
	leaseVer   uint64
	leaseEpoch uint64
	leaseValid bool
}

// Meta returns the object's metadata.
func (o *Obj) Meta() Meta { return o.meta }

// dirEntry is the home node's directory record for one object.
type dirEntry struct {
	mu lockrank.Mutex[lockrank.DirEntry]
	// relayMu serializes update redistribution for this object so
	// receivers observe sequence numbers in order and an acknowledged
	// relay implies every earlier relay was installed. Held across the
	// stamp + multicast + ack round, never together with mu.
	relayMu lockrank.Mutex[lockrank.DirRelay]
	owner   msg.NodeID // ownership protocols; home initially
	// epoch numbers the owner's ownership period: every grant and every
	// reclaim by the home starts the next one. Forwards carry the period
	// of the owner they are sent to.
	epoch    uint32
	copyset  map[msg.NodeID]bool
	reads    int64 // remote reads observed (dynamic decisions)
	writes   int64 // remote writes observed
	rereads  int64 // reads since last update (invalidate-vs-refresh)
	dropped  int64 // copies dropped by the last invalidation round
	producer msg.NodeID

	// fwd notes, per faulting node, the last fault the home passed on to
	// the owner (forward): the owner answers the faulting node directly,
	// so this is all the home has to answer for it should the owner be
	// lost first (refuse). One entry a node, because a node has one fault
	// per object outstanding (Obj.fetching, Obj.owning); an entry
	// outlives its call until the next forward replaces it, and answering
	// a call that has completed costs the faulting node one
	// drop.stray_reply.
	fwd map[msg.NodeID]forwarded

	updMode UpdateMode // current refresh/invalidate choice
}

// forwarded is one fault passed on to the owner: the node it went to,
// the faulting node's call sequence, whether it is a write, and for a
// write the ownership period its grant starts and whether the writer's
// vouch was good (the grant carries no data).
type forwarded struct {
	to          msg.NodeID
	seq         uint64
	epoch       uint32
	write, good bool
}

// objTable maps ObjectID to the node's *Obj. Every Read, Write, fault,
// diff merge and relay starts with a lookup here, so lookups take no
// lock: the table is an open-addressed array of atomic pointers (linear
// probing, never more than half full, no deletion — objects are never
// freed), and the object's immutable meta.ID is the key. Installing an
// object stores one cell; a full table is replaced by publishing a
// rehashed copy twice the size, so an install is O(1) amortised however
// sparse the IDs are (Ivy's pages start at 1<<20).
type objTable struct {
	mu    lockrank.Mutex[lockrank.ObjTable]     // serializes put; get never takes it
	cells atomic.Pointer[[]atomic.Pointer[Obj]] // power-of-two length; a published array is filled in, never resized
	n     int                                   // objects installed; under mu
}

// objSlot is the home slot of id in a table of the given power-of-two
// size: Fibonacci hashing, which spreads the dense ID ranges allocation
// produces over distinct slots.
func objSlot(id memory.ObjectID, size int) int {
	return int(uint32(id) * 2654435769 >> bits.LeadingZeros32(uint32(size-1)))
}

// published returns the current cell array (nil before the first
// install).
func (t *objTable) published() []atomic.Pointer[Obj] {
	if p := t.cells.Load(); p != nil {
		return *p
	}
	return nil
}

// get returns the object installed under id, or nil.
func (t *objTable) get(id memory.ObjectID) *Obj {
	cells := t.published()
	if len(cells) == 0 {
		return nil
	}
	for i := objSlot(id, len(cells)); ; i = (i + 1) & (len(cells) - 1) {
		if o := cells[i].Load(); o == nil || o.meta.ID == id {
			return o
		}
	}
}

// put publishes o under its ID.
func (t *objTable) put(o *Obj) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cells := t.published()
	if 2*(t.n+1) <= len(cells) {
		if objInsert(cells, o) {
			t.n++
		}
		return
	}
	grown := make([]atomic.Pointer[Obj], max(16, 2*len(cells)))
	for i := range cells {
		if old := cells[i].Load(); old != nil {
			objInsert(grown, old)
		}
	}
	if objInsert(grown, o) {
		t.n++
	}
	t.cells.Store(&grown)
}

// objInsert stores o in the first free slot of its probe sequence, or
// over an object already installed under the same ID, and reports
// whether the ID was new. The caller holds the table's mu.
func objInsert(cells []atomic.Pointer[Obj], o *Obj) bool {
	for i := objSlot(o.meta.ID, len(cells)); ; i = (i + 1) & (len(cells) - 1) {
		switch cur := cells[i].Load(); {
		case cur == nil:
			cells[i].Store(o)
			return true
		case cur.meta.ID == o.meta.ID:
			cells[i].Store(o)
			return false
		}
	}
}

// each calls f for every installed object, in no particular order.
func (t *objTable) each(f func(*Obj)) {
	cells := t.published()
	for i := range cells {
		if o := cells[i].Load(); o != nil {
			f(o)
		}
	}
}

// Node is the per-processor Munin server.
type Node struct {
	k     *vkernel.Kernel
	locks *dlock.Service
	id    msg.NodeID
	nodes int

	// objs is the lock-free-read object table (see objTable).
	objs objTable

	// gen is the translation generation. A thread may cache what an
	// object ID resolves to on this node — the *Obj, and a write-once
	// object's published snapshot (Obj.View) — for as long as gen is
	// unchanged (Gen; internal/core's translation table). Whatever could
	// make a cached translation wrong bumps it: install, which may
	// replace an ID's *Obj (recovery re-installs); every retract of a
	// snapshot (Evict, the home's thaw in writeOnceWrite); and
	// BeginRecovery, which a cached read would otherwise walk past. So
	// one load per access shoots down every thread's cache. It starts at
	// 1: a zeroed cache entry never matches.
	gen atomic.Uint64
	// The line above is read on every access of every thread; keep the
	// written-per-sync word below off it.
	_ [56]byte

	// syncEpoch counts this node's synchronization points: TryFlushQueue
	// bumps it before draining, so every acquire/release/barrier/atomic
	// and thread exit advances it. The lease engine binds leases to it —
	// a lease granted under one epoch lapses at the next sync, which is
	// exactly when §3.2 requires remote updates to become visible.
	syncEpoch atomic.Uint64

	// Recovery gate (recovery.go): a member constructed to rejoin an
	// existing cluster blocks application reads and writes until its
	// recovery handshake completes, so it can never serve pre-crash
	// bytes. recovering is a single atomic load on the hot path;
	// recoverCh is closed by FinishRecovery to release the waiters.
	recovering atomic.Bool
	recoverCh  chan struct{}

	// setupDigest, when set (SetSetupDigest), lets handleRecover
	// verify a rejoining member's announced setup digest against this
	// member's own — SPMD members allocate identically, so any
	// difference is program divergence.
	digestMu    lockrank.Mutex[lockrank.NodeDigest]
	setupDigest func() (sum uint64, n int)

	// C names this node's counters: ctr, and Core, which the runtime's
	// run gate bumps. A thread adds to the counters every access bumps
	// (reads, writes, write.buffered) through the cells on its queue
	// (Attach).
	C    stats.Set
	ctr  stats.Protocol
	Core stats.Core
}

// Message kinds. Each package's kinds form one contiguous block: its
// Call kinds, then its one-way kinds, then a sentinel one past the end.
// The dispatch tables below are keyed by kind minus the first kind of
// their half, so a kind given two handlers, or a handler on a kind
// outside its half, does not compile, and a kind given none panics in
// NewNode. Allocation announces (Node.Alloc) are control traffic
// (msg.KindPing range), not coherence traffic — the bench harness
// separates one-time setup from steady-state sharing messages — so
// kindAlloc is a block of its own.
const (
	kindAlloc    = msg.KindPing + 1 + iota // Call: install object metadata + initial bytes (Node.Alloc)
	kindAllocEnd                           // sentinel
)

const (
	kindRead       = msg.KindCohBase + iota // Call: fetch a readable copy from home
	kindWriteOwn                            // Call: acquire exclusive ownership
	kindInv                                 // Call/multicast: invalidate local copy (acked)
	kindFwdRead                             // Forward: home passes a read fault to the owner, which answers the reader
	kindFwdWrite                            // Forward: home passes a write fault to the old owner, which grants the writer
	kindRemRead                             // Call: remote load (read-mostly, result readers)
	kindRemWrite                            // Call: remote store (read-mostly)
	kindRegCons                             // Call: register as consumer; reply data+seq
	kindConsUpd                             // Call: home tells producer the consumer set changed (acked)
	kindDiffBatch                           // Call: delayed-update diffs for one home, one entry per object (acked)
	kindApplyBatch                          // Call/multicast: sequenced refreshes at copies, one entry per object (acked)
	kindLeaseRead                           // Call: lease take/renew (msg.LeaseReq -> msg.LeaseGrant)
	kindLeaseWrite                          // Call: lease write-through; reply is the new version
	kindRecover                             // Call: rejoined member re-announces its allocations (recovery.go)
	kindEvict                               // Send: node dropped its copy (pageout)
	kindCohEnd                              // sentinel
)

var (
	allocCalls = [kindAllocEnd - kindAlloc]func(*Node, *msg.Msg) vkernel.Outcome{
		kindAlloc - kindAlloc: (*Node).handleAlloc,
	}
	cohCalls = [kindEvict - kindRead]func(*Node, *msg.Msg) vkernel.Outcome{
		kindRead - kindRead:       (*Node).handleRead,
		kindWriteOwn - kindRead:   (*Node).handleWriteOwn,
		kindInv - kindRead:        (*Node).handleInv,
		kindFwdRead - kindRead:    (*Node).handleFwdRead,
		kindFwdWrite - kindRead:   (*Node).handleFwdWrite,
		kindRemRead - kindRead:    (*Node).handleRemRead,
		kindRemWrite - kindRead:   (*Node).handleRemWrite,
		kindRegCons - kindRead:    (*Node).handleRegCons,
		kindConsUpd - kindRead:    (*Node).handleConsUpd,
		kindDiffBatch - kindRead:  (*Node).handleDiffBatch,
		kindApplyBatch - kindRead: (*Node).handleApplyBatch,
		kindLeaseRead - kindRead:  (*Node).handleLeaseRead,
		kindLeaseWrite - kindRead: (*Node).handleLeaseWrite,
		kindRecover - kindRead:    (*Node).handleRecover,
	}
	cohSends = [kindCohEnd - kindEvict]func(*Node, *msg.Msg){
		kindEvict - kindEvict: (*Node).handleEvict,
	}
)

// A read fault's reply is the object (encodeDataReply, never shorter
// than its 8-byte sequence) or a nack, whose first byte is the reason.
const (
	// nackRetry: the node the fault was forwarded to no longer holds the
	// object (ownership moved on, or the node left and the home took the
	// object back). The reader asks the home again.
	nackRetry = 1
	// nackOwnerDown: the wire to the owner died and nobody can serve the
	// object; the owner's node ID follows (U32). The fault fails with
	// a peer-down error (transport.PeerDownOf).
	nackOwnerDown = 2
)

// NewNode creates the Munin server for this node and registers its
// message handlers. locks may be nil only if no migratory objects are
// used.
func NewNode(k *vkernel.Kernel, locks *dlock.Service) *Node {
	n := &Node{
		k:     k,
		locks: locks,
		id:    k.Node(),
		nodes: k.Nodes(),
	}
	n.gen.Store(1)
	n.C.Bind(&n.ctr)
	n.C.Bind(&n.Core)
	vkernel.HandleCalls(k, kindAlloc, n, allocCalls[:])
	vkernel.HandleCalls(k, kindRead, n, cohCalls[:])
	vkernel.HandleSends(k, kindEvict, n, cohSends[:])
	if locks != nil {
		locks.AttachBarrier(n.barrierCheck, n.barrierMerge)
	}
	return n
}

// ID returns this node's ID.
func (n *Node) ID() msg.NodeID { return n.id }

// Attach gives the thread that owns q its own cells of this node's
// access counters, so its reads and writes count with plain stores. The
// runtime calls it when it starts a thread placed on this node, and
// Detach when the thread exits.
func (n *Node) Attach(q *duq.Queue) {
	n.ctr.Reads.Attach(&q.Reads)
	n.ctr.Writes.Attach(&q.Writes)
	n.ctr.WriteBuffered.Attach(&q.Buffered)
}

// Detach folds the cells Attach gave q into the node's counters. It is
// called by q's own thread.
func (n *Node) Detach(q *duq.Queue) {
	q.Reads.Fold()
	q.Writes.Fold()
	q.Buffered.Fold()
}

// Gen returns the node's translation generation (see Node.gen): a
// translation cached under one value is valid while Gen still returns
// it.
func (n *Node) Gen() uint64 { return n.gen.Load() }

// Object returns this node's view of id, for a caller that caches the
// translation (Gen) and accesses through ReadObj and WriteObj. Like
// Read, it panics if the object was never allocated here.
func (n *Node) Object(id memory.ObjectID) *Obj { return n.mustObj(id) }

// View returns the object's published snapshot — a write-once copy,
// whose bytes never change — or "" when none is published. Reads of
// [0, len) may be served from it for as long as the node's Gen is what
// it was before View was called: every retract bumps it.
func (o *Obj) View() string { return o.snap.view() }

// homeOf returns the home node for an object.
func (n *Node) homeOf(m *Meta) msg.NodeID {
	if m.Opts.Home >= 0 {
		return m.Opts.Home
	}
	return cluster.HomeOf(uint64(m.ID), n.nodes)
}

// obj returns the local view of id, or nil if the object was never
// installed here.
func (n *Node) obj(id memory.ObjectID) *Obj { return n.objs.get(id) }

// mustObj panics if the object is unknown — accessing unallocated
// shared memory is a program bug, the analogue of a wild pointer.
func (n *Node) mustObj(id memory.ObjectID) *Obj {
	o := n.obj(id)
	if o == nil {
		panic(fmt.Sprintf("munin: node %d: access to unallocated object %d", n.id, id))
	}
	return o
}

// objFromWire resolves an object ID that arrived in a message. Every
// handler takes its IDs through it: a peer's bytes are not this
// program's bug, so an ID this node never installed is counted as a drop
// (drop.unknown_object) and yields nil where mustObj — the resolver of
// the local API path — would panic.
func (n *Node) objFromWire(id memory.ObjectID) *Obj {
	o := n.obj(id)
	if o == nil {
		n.ctr.DropUnknownObject.Inc()
	}
	return o
}

// dirEntryOf returns the directory record of an installed object,
// creating it on first use.
func (n *Node) dirEntryOf(id memory.ObjectID) *dirEntry {
	o := n.mustObj(id)
	if d := o.dir.Load(); d != nil {
		return d
	}
	d := &dirEntry{owner: n.id, copyset: make(map[msg.NodeID]bool), producer: -1, updMode: o.meta.Opts.Update}
	if o.dir.CompareAndSwap(nil, d) {
		return d
	}
	return o.dir.Load()
}

// checkAllocArgs validates allocation arguments, resolves the object's
// engine into meta — from meta alone, so every node that installs the
// object (and Alloc's announce) gets the same row — and fills a nil
// init with zeroes.
func checkAllocArgs(meta *Meta, init []byte) []byte {
	if meta.Size <= 0 {
		panic(fmt.Sprintf("munin: alloc %q: size must be positive", meta.Name))
	}
	meta.Opts.Engine = policyOf(meta).engine // panics on a lease request the lease row does not cover
	if init != nil && len(init) != meta.Size {
		panic(fmt.Sprintf("munin: alloc %q: init length %d != size %d", meta.Name, len(init), meta.Size))
	}
	if init == nil {
		init = make([]byte, meta.Size)
	}
	return init
}

// Alloc installs a new shared object cluster-wide with one kindAlloc call
// to each other node. It must be called from single-threaded setup code
// (the driver), before worker threads touch the object. The runtime
// installs with InstallLocal instead; Alloc serves protocol-level
// harnesses that build nodes without it.
func (n *Node) Alloc(meta Meta, init []byte) {
	init = checkAllocArgs(&meta, init)
	payload := encodeAlloc(meta, init)
	// Synchronous install on every node: setup traffic, acked so no
	// worker can race an in-flight announce.
	for i := 0; i < n.nodes; i++ {
		dst := msg.NodeID(i)
		if dst == n.id {
			n.install(meta, init)
			continue
		}
		if _, err := n.k.Call(dst, kindAlloc, payload); err != nil {
			panic(fmt.Sprintf("munin: alloc %q: announce to node %d: %v", meta.Name, dst, err))
		}
	}
}

// InstallLocal installs a new shared object on this node only and sends
// nothing: the runtime's allocation path in both shapes. In-process the
// allocator calls it on every node; in an SPMD program each process
// executes the same setup code, so each installs its own view under the
// identical, deterministically assigned ID (the run gate verifies that;
// see internal/core). Every node gets the initial bytes, so the object's
// home keeps them and the lock's home seeds a migratory object locally.
func (n *Node) InstallLocal(meta Meta, init []byte) {
	init = checkAllocArgs(&meta, init)
	n.install(meta, init)
}

// install creates the local view of a newly allocated object.
func (n *Node) install(meta Meta, init []byte) {
	o := &Obj{meta: meta, pendApply: make(map[uint64][]memory.Span)}
	pol := policyOf(&meta)
	o.pol.Store(pol)
	o.cond = sync.NewCond(&o.mu)
	home := n.homeOf(&meta)
	switch {
	case pol.private:
		// Every node gets its own independent copy.
		o.data = append([]byte(nil), init...)
		o.state = Exclusive
	case pol.lockBound:
		// Data rides with the lock. Register the transfer hooks and
		// seed the lock (it stores at the lock's home only).
		o.data = append([]byte(nil), init...)
		o.state = Invalid // valid only while the lock is held here
		if n.locks == nil {
			panic("munin: migratory object requires a lock service")
		}
		n.locks.AttachMigratory(meta.Opts.Lock, o.migratorySnapshot, o.migratoryInstall)
		n.locks.SeedMigratory(meta.Opts.Lock, init)
	case home == n.id:
		o.data = append([]byte(nil), init...)
		o.state = Exclusive
		o.owns = true
	case pol.frozen:
		o.state = Invalid // the replica, when fetched, is o.snap
	default:
		o.data = make([]byte, meta.Size)
		o.state = Invalid
	}
	n.objs.put(o)
	n.gen.Add(1)
	if home == n.id {
		d := n.dirEntryOf(meta.ID)
		d.mu.Lock()
		d.owner = n.id
		d.copyset[n.id] = true
		d.mu.Unlock()
	}
}

// migratorySnapshot surrenders the object with its lock: emit encodes
// the bytes into the release message under o.mu, and the local copy is
// invalid from then on.
func (o *Obj) migratorySnapshot(emit func([]byte)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state = Invalid
	emit(o.data)
}

func (o *Obj) migratoryInstall(b []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	copy(o.data, b)
	o.state = Exclusive
}

// handleAlloc installs an object another node allocated (Node.Alloc).
func (n *Node) handleAlloc(req *msg.Msg) vkernel.Outcome {
	meta, init, err := decodeAlloc(req.Payload)
	if err != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	n.install(meta, init)
	n.k.Reply(req, nil)
	return vkernel.Replied
}

// encodeAlloc packs object metadata + initial contents.
func encodeAlloc(meta Meta, init []byte) []byte {
	b := msg.NewBuilder(64 + len(init))
	b.U32(uint32(meta.ID)).Str(meta.Name).Int(meta.Size).U8(uint8(meta.Annot))
	b.I64(int64(meta.Opts.Home)).U32(uint32(meta.Opts.Lock)).U8(uint8(meta.Opts.Update))
	b.Bool(meta.Opts.Dynamic).Bool(meta.Opts.ForceReplicated)
	b.U8(uint8(meta.Opts.Engine))
	b.BytesN(init)
	return b.Bytes()
}

func decodeAlloc(p []byte) (Meta, []byte, error) {
	r := msg.NewReader(p)
	var meta Meta
	meta.ID = memory.ObjectID(r.U32())
	meta.Name = r.Str()
	meta.Size = r.Int()
	meta.Annot = Annotation(r.U8())
	meta.Opts.Home = msg.NodeID(r.I64())
	meta.Opts.Lock = dlock.LockID(r.U32())
	meta.Opts.Update = UpdateMode(r.U8())
	meta.Opts.Dynamic = r.Bool()
	meta.Opts.ForceReplicated = r.Bool()
	meta.Opts.Engine = EngineKind(r.U8())
	init := r.BytesN() // install copies it; nothing here outlives the request
	return meta, init, r.Err()
}

// inRange reports whether [off, off+n) lies inside the object, without
// overflowing however large off and n are.
func inRange(o *Obj, off, n int) bool {
	return off >= 0 && n >= 0 && off <= o.meta.Size-n
}

// checkRange panics on out-of-bounds object access.
func checkRange(o *Obj, off, n int) {
	if !inRange(o, off, n) {
		panic(fmt.Sprintf("munin: access [%d,%d) out of range for %q (size %d)",
			off, off+n, o.meta.Name, o.meta.Size))
	}
}
