package protocol

import (
	"fmt"

	"munin/internal/duq"
)

// EngineKind names a coherence engine — the per-object state machine
// behind Read/Write faults. The paper's thesis is that coherence
// machinery should be chosen per data class; the engine split carries
// that one level further: not only the policy (refresh vs invalidate,
// eager vs lazy) but the whole mechanism is pluggable per object.
type EngineKind uint8

const (
	// EngineDefault defers to the node's per-annotation selection
	// (SetAnnotationEngine); unset, that selection is the directory
	// engine. The zero value, so plain Options pick up the default.
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

// engine is one coherence machine: it owns the fault path — what a
// read or write of an object does to keep copies coherent. The delayed
// update queue q belongs to the calling thread; only the directory
// engine's loose protocols (write-many, result, producer-consumer)
// buffer into it, but the signature is uniform so Node.Read/Write
// dispatch without knowing the engine.
//
// The DUQ flush pipeline (TryFlushQueue) is directory-engine
// machinery: only annotations the directory engine routes through the
// queue ever appear in a flush plan, so the engines need no flush
// hook. What every engine shares is the synchronization epoch the
// flush bumps — the lease engine's leases expire on it.
type engine interface {
	kind() EngineKind
	read(n *Node, q *duq.Queue, o *Obj, off int, buf []byte)
	write(n *Node, q *duq.Queue, o *Obj, off int, data []byte)
}

var (
	dirEngine   engine = directoryEngine{}
	leaseEngine engine = leaseEng{}
)

// engineFor maps a resolved EngineKind to its implementation.
func engineFor(k EngineKind) engine {
	if k == EngineLease {
		return leaseEngine
	}
	return dirEngine
}

// SetAnnotationEngine selects the coherence engine for every object of
// the given annotation allocated after the call (per-object
// Options.Engine still overrides). Only read-mostly objects may ride
// the lease engine: its stale-until-revalidated contract matches the
// remote-load/replication semantics of §3.3.5, not the ownership or
// delayed-update protocols. Call it during setup, before allocations,
// and identically on every node of the cluster.
func (n *Node) SetAnnotationEngine(a Annotation, e EngineKind) {
	if e == EngineLease && a != ReadMostly {
		panic(fmt.Sprintf("munin: lease engine supports read-mostly objects only, not %v", a))
	}
	n.annotEngine[a] = e
}

// resolveEngine pins down the engine an allocation will use: the
// per-object option if set, else the node's per-annotation selection,
// else the directory engine. Alloc resolves before announcing so every
// node installs the same engine regardless of local selections.
func (n *Node) resolveEngine(meta *Meta) EngineKind {
	e := meta.Opts.Engine
	if e == EngineDefault && int(meta.Annot) < len(n.annotEngine) {
		e = n.annotEngine[meta.Annot]
	}
	if e == EngineDefault {
		e = EngineDirectory
	}
	return e
}

// directoryEngine is engine #1: the home/directory/copyset machine the
// prototype always ran — one coherence mechanism per annotation
// (§3.3), updates redistributed eagerly by the home on every write.
type directoryEngine struct{}

func (directoryEngine) kind() EngineKind { return EngineDirectory }

// read serves a local hit — a valid copy, under any annotation but one —
// inside one hold of o.mu: the validity check and the copy share a
// critical section, and only an Invalid copy leaves it for the fault
// path, which runs with o.mu released. The exception is a write-once
// object, whose hit is a copy out of its frozen snapshot and takes no
// lock at all.
func (directoryEngine) read(n *Node, q *duq.Queue, o *Obj, off int, buf []byte) {
	switch o.meta.Annot {
	case WriteOnce:
		if s := o.snap.view(); s != "" {
			copy(buf, s[off:])
			return
		}
		n.writeOnceFault(o, off, buf)
	case Private:
		o.mu.Lock()
		copy(buf, o.data[off:])
		o.mu.Unlock()
	case Migratory:
		o.mu.Lock()
		if o.state == Invalid {
			o.mu.Unlock()
			panic(fmt.Sprintf("munin: migratory object %q read without holding lock %d",
				o.meta.Name, o.meta.Opts.Lock))
		}
		copy(buf, o.data[off:])
		o.mu.Unlock()
	case ReadMostly:
		n.readMostlyRead(o, off, buf)
	case Result:
		n.resultRead(o, off, buf)
	case ProducerConsumer:
		o.mu.Lock()
		if !o.registered && !o.isProducer && o.state == Invalid {
			o.mu.Unlock()
			n.ensureConsumer(o)
			o.mu.Lock()
		}
		copy(buf, o.data[off:])
		o.mu.Unlock()
	default: // Conventional, GeneralRW, WriteMany
		o.mu.Lock()
		if o.state == Invalid {
			o.mu.Unlock()
			n.ensureReadable(o)
			o.mu.Lock()
		}
		copy(buf, o.data[off:])
		o.mu.Unlock()
	}
}

func (directoryEngine) write(n *Node, q *duq.Queue, o *Obj, off int, data []byte) {
	switch o.meta.Annot {
	case Private:
		o.mu.Lock()
		copy(o.data[off:], data)
		o.mu.Unlock()
	case Migratory:
		o.mu.Lock()
		if o.state == Invalid {
			o.mu.Unlock()
			panic(fmt.Sprintf("munin: migratory object %q written without holding lock %d",
				o.meta.Name, o.meta.Opts.Lock))
		}
		copy(o.data[off:], data)
		o.mu.Unlock()
	case WriteOnce:
		n.writeOnceWrite(o, off, data)
	case WriteMany, Result:
		n.bufferedWrite(q, o, off, data)
	case ProducerConsumer:
		n.producerWrite(q, o, off, data)
	case ReadMostly:
		n.readMostlyWrite(o, off, data)
	default: // Conventional, GeneralRW
		n.ownershipWrite(o, off, data)
	}
}
