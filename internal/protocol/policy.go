package protocol

import (
	"fmt"

	"munin/internal/duq"
)

// EngineKind names a coherence engine — the home-side machine a policy
// row belongs to. The directory engine runs every annotation; the lease
// engine runs read-mostly objects only.
type EngineKind uint8

const (
	// EngineDefault is the zero value, so plain Options pick up the
	// annotation's own row, which is the directory engine's. Alloc
	// resolves it to EngineDirectory before any node installs it.
	EngineDefault EngineKind = iota
	// EngineDirectory is the classic home/directory machine: a copyset
	// per object at the home, updates pushed (refresh) or copies
	// dropped (invalidate) eagerly on every write — §3.3's protocols
	// as one engine.
	EngineDirectory
	// EngineLease is the Tardis-style logical-lease engine for
	// read-mostly objects: reads are served from a local replica while
	// its lease is live, writes bump a logical version at the home and
	// publish nothing — no invalidation multicast, no copyset. A
	// reader whose lease lapsed (it passed a synchronization point)
	// revalidates lazily on its next access.
	EngineLease
)

var engineNames = [...]string{"default", "directory", "lease"}

func (e EngineKind) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// flushTarget is where a delayed write goes at the writer's next
// synchronization point.
type flushTarget uint8

const (
	flushNone      flushTarget = iota // writes are not delayed
	flushHome                         // a diff to the home, merged into its copy
	flushConsumers                    // pushed to the registered consumers and the home
)

// policy is an object's coherence protocol written as a row of protocol
// parameters, the way the Munin implementation paper (Carter, Bennett &
// Zwaenepoel, SOSP '91) describes each annotation. install points every
// object at one row (policyOf); from then on the access path calls the
// row's methods and the handlers branch on its fields, so nothing asks
// which annotation an object has. Rows are never written. An object
// changes row only by §3.4.1's switch, from the read-mostly remote row
// to replicatedRow and never back (handleRemRead, remoteRead).
type policy struct {
	// engine is the machine the row belongs to; the recovery announce
	// carries it.
	engine EngineKind
	// read serves Node.Read and write serves Node.Write. q is the
	// writing thread's delayed update queue; only the rows that delay
	// writes use it.
	read  func(n *Node, o *Obj, off int, buf []byte)
	write func(n *Node, q *duq.Queue, o *Obj, off int, data []byte)

	// private: every node holds its own copy, and no copy is ever made
	// coherent.
	private bool
	// lockBound: the bytes ride the object's lock, and a node's copy is
	// valid only while it holds the lock.
	lockBound bool
	// frozen: the home copy freezes into a snapshot when it serves its
	// first replica, and is written only before that.
	frozen bool
	// owned: one node owns the object at a time. The home forwards read
	// faults to the owner, and a write fault invalidates every other
	// copy.
	owned bool
	// flush: where a write goes at the writer's next synchronization
	// point; flushNone for rows that do not delay writes.
	flush flushTarget
	// relay: the home sends every update on to the copy set — each
	// merged diff (mergeStamp), or each remote store, by refresh or
	// invalidation as §3.4.2 adapts it (homeRemoteStore).
	relay bool
	// remote: a read-mostly object under the directory engine (§3.3.5).
	// Writes are remote stores at the home, and a read that crosses the
	// wire counts rm.remote_reads. Without relay, reads are remote loads
	// as well, which the home counts under Options.Dynamic to swap in
	// replicatedRow once they dominate (§3.4.1).
	remote bool
}

// rows holds the directory engine's row for each annotation (§3.3).
var rows = [...]policy{
	Conventional:     {engine: EngineDirectory, read: (*Node).replicatedRead, write: (*Node).ownershipWrite, owned: true},
	GeneralRW:        {engine: EngineDirectory, read: (*Node).replicatedRead, write: (*Node).ownershipWrite, owned: true},
	WriteOnce:        {engine: EngineDirectory, read: (*Node).writeOnceRead, write: (*Node).writeOnceWrite, frozen: true},
	WriteMany:        {engine: EngineDirectory, read: (*Node).replicatedRead, write: (*Node).bufferedWrite, flush: flushHome, relay: true},
	Result:           {engine: EngineDirectory, read: (*Node).remoteRead, write: (*Node).bufferedWrite, flush: flushHome},
	ProducerConsumer: {engine: EngineDirectory, read: (*Node).consumerRead, write: (*Node).producerWrite, flush: flushConsumers},
	Migratory:        {engine: EngineDirectory, read: (*Node).heldRead, write: (*Node).heldWrite, lockBound: true},
	Private:          {engine: EngineDirectory, read: (*Node).heldRead, write: (*Node).heldWrite, private: true},
	ReadMostly:       {engine: EngineDirectory, read: (*Node).remoteRead, write: (*Node).readMostlyWrite, remote: true},
}

// replicatedRow is a read-mostly object replicated under the directory
// engine: reads are served from a local copy, and the home keeps the
// copies by refresh or invalidation. Options.ForceReplicated installs it;
// otherwise the §3.4.1 switch swaps it in for rows[ReadMostly].
var replicatedRow = policy{engine: EngineDirectory, read: (*Node).replicatedRead, write: (*Node).readMostlyWrite, relay: true, remote: true}

// leaseRow is a read-mostly object under the lease engine (lease.go).
// Its home keeps a version instead of a copy set, so none of the
// directory parameters apply.
var leaseRow = policy{engine: EngineLease, read: (*Node).leaseRead, write: (*Node).leaseWrite}

// policyOf is the row constructor, the one place an object's annotation
// chooses its protocol. Options.Engine = EngineLease selects the lease
// row, for read-mostly objects only; any other value selects the
// annotation's directory row, replicatedRow for a read-mostly object
// under Options.ForceReplicated.
func policyOf(meta *Meta) *policy {
	if meta.Opts.Engine == EngineLease {
		if meta.Annot != ReadMostly {
			panic(fmt.Sprintf("munin: alloc %q: lease engine supports read-mostly objects only, not %v",
				meta.Name, meta.Annot))
		}
		return &leaseRow
	}
	if int(meta.Annot) >= len(rows) {
		panic(fmt.Sprintf("munin: alloc %q: unknown %v", meta.Name, meta.Annot))
	}
	if meta.Annot == ReadMostly && meta.Opts.ForceReplicated {
		return &replicatedRow
	}
	return &rows[meta.Annot]
}

// heldRead serves a read from a copy that stays valid as long as this
// node holds it: a private copy always, a migratory one while its lock
// is held here. Invalid can only be a migratory object read without
// its lock.
func (n *Node) heldRead(o *Obj, off int, buf []byte) {
	o.mu.Lock()
	if o.state == Invalid {
		o.mu.Unlock()
		panic(fmt.Sprintf("munin: migratory object %q read without holding lock %d",
			o.meta.Name, o.meta.Opts.Lock))
	}
	copy(buf, o.data[off:])
	o.mu.Unlock()
}

func (n *Node) heldWrite(_ *duq.Queue, o *Obj, off int, data []byte) {
	o.mu.Lock()
	if o.state == Invalid {
		o.mu.Unlock()
		panic(fmt.Sprintf("munin: migratory object %q written without holding lock %d",
			o.meta.Name, o.meta.Opts.Lock))
	}
	copy(o.data[off:], data)
	o.mu.Unlock()
}

// replicatedRead serves a read of a replica inside one hold of o.mu: the
// validity check and the copy share a critical section, and only an
// Invalid copy leaves it for the fault path, which runs with o.mu
// released.
func (n *Node) replicatedRead(o *Obj, off int, buf []byte) {
	o.mu.Lock()
	if o.state == Invalid {
		o.mu.Unlock()
		n.ensureReadable(o)
		o.mu.Lock()
	}
	copy(buf, o.data[off:])
	o.mu.Unlock()
}

// consumerRead serves a producer-consumer read: a consumer's first read
// registers it and installs the current contents, and the producer's
// pushes keep the copy fresh from then on.
func (n *Node) consumerRead(o *Obj, off int, buf []byte) {
	o.mu.Lock()
	if !o.registered && !o.isProducer && o.state == Invalid {
		o.mu.Unlock()
		n.ensureConsumer(o)
		o.mu.Lock()
	}
	copy(buf, o.data[off:])
	o.mu.Unlock()
}
