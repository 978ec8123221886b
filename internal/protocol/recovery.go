package protocol

import (
	"fmt"
	"sort"

	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/vkernel"
)

// Protocol-level recovery (docs/ARCHITECTURE.md, "Recovery"): the
// transport's epoch-versioned reconnect revives the wire after a
// member crashes and restarts, but the protocol state above it is
// one-sided — survivors still record the dead incarnation's copies,
// ownership, producer registrations, and queued lock grants, while the
// restarted process comes back with nothing. The recovery handshake
// squares the two views:
//
//  1. The rejoining member re-announces its allocations (object IDs +
//     resolved engine kinds + setup-digest position) to every peer
//     with a kindRecover call. Each peer verifies the announce against
//     its own allocations — SPMD members allocate identically, so any
//     difference is program divergence, reported as a typed rejection
//     — and then rebuilds its state for the rejoined node: the old
//     incarnation's copy-set entries, producer slot, consumer cache,
//     exclusive ownership (prunePeer), and queued or held distributed
//     locks (dlock.Service.PeerRecovered) are all dropped or
//     reclaimed. Nothing of the dead incarnation survives; the fresh
//     one re-enters copy sets and lock queues the ordinary way.
//  2. Replicas are re-primed lazily: the rejoined member's objects
//     install Invalid (except at their home), so its first read of
//     each object runs the existing fault path (ensureReadable) and
//     fetches current bytes + sequence position from the home. No bulk
//     state transfer, no new data-movement machinery.
//  3. Until the handshake completes, the member's application reads
//     and writes block (awaitRecovered): a recovering member can never
//     serve pre-crash bytes, per §3.2's conservative visibility.
//
// The run-gate sequence resync (step 4 of the handshake) lives one
// layer up in internal/core, which owns the gate.

// BeginRecovery marks this node as recovering: application reads and
// writes block until FinishRecovery. It must be called during
// construction, before any application thread can touch shared memory.
// It bumps the translation generation all the same: a read served from
// a cached translation skips awaitRecovered.
func (n *Node) BeginRecovery() {
	n.recoverCh = make(chan struct{})
	n.recovering.Store(true)
	n.gen.Add(1)
}

// FinishRecovery completes the recovery handshake and releases every
// blocked reader and writer. Idempotent.
func (n *Node) FinishRecovery() {
	if n.recovering.CompareAndSwap(true, false) {
		close(n.recoverCh)
		n.C.Add(stats.CRecoverDone, 1)
	}
}

// Recovering reports whether the node is still inside its recovery
// handshake.
func (n *Node) Recovering() bool { return n.recovering.Load() }

// awaitRecovered parks the calling application thread while the node
// is recovering. One atomic load in steady state.
func (n *Node) awaitRecovered() {
	if n.recovering.Load() {
		<-n.recoverCh
	}
}

// SetSetupDigest registers the provider of this member's setup digest
// (the runtime's fold over its allocation sequence). When set, an
// incoming recovery announce must carry the identical digest.
func (n *Node) SetSetupDigest(f func() (sum uint64, n int)) {
	n.digestMu.Lock()
	n.setupDigest = f
	n.digestMu.Unlock()
}

func (n *Node) setupDigestFn() func() (uint64, int) {
	n.digestMu.Lock()
	defer n.digestMu.Unlock()
	return n.setupDigest
}

// RecoverAnnounce replays this member's allocations to every peer: the
// rejoining side of the handshake. The payload carries the setup
// digest (sum + fold count) and each local object's ID and resolved
// engine kind, sorted by ID. A peer that finds a mismatch — an object
// it never allocated, a different engine, a different digest — rejects
// the announce, and the error surfaces here as setup divergence.
// Peers that departed cleanly are skipped.
func (n *Node) RecoverAnnounce(setupSum uint64, setupN int) error {
	type objKind struct {
		id   memory.ObjectID
		kind EngineKind
	}
	var objs []objKind
	n.objs.each(func(o *Obj) {
		objs = append(objs, objKind{o.meta.ID, o.pol.engine})
	})
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })

	b := msg.NewBuilder(32 + 5*len(objs))
	b.U64(setupSum).Int(setupN).Int(len(objs))
	for _, e := range objs {
		b.U32(uint32(e.id)).U8(uint8(e.kind))
	}
	payload := b.Bytes()

	for i := 0; i < n.nodes; i++ {
		dst := msg.NodeID(i)
		if dst == n.id {
			continue
		}
		reply, err := n.k.Call(dst, kindRecover, payload)
		if err != nil {
			if isGone(err) {
				continue // departed cleanly; nothing to rebuild there
			}
			return fmt.Errorf("munin: recover: announce to node %d: %w", dst, err)
		}
		r := msg.NewReader(reply.Payload)
		if verdict := r.U8(); verdict != recoverOK {
			return fmt.Errorf("munin: recover: node %d rejected announce: %s", dst, r.Str())
		}
	}
	n.C.Add(stats.CRecoverAnnounced, 1)
	n.C.Add(stats.CRecoverObjects, int64(len(objs)))
	return nil
}

// kindRecover reply verdicts.
const (
	recoverOK       = 0
	recoverMismatch = 1
)

// handleRecover is the surviving side of the handshake: validate the
// rejoining member's announced allocations against our own, then
// rebuild our state for it — prune every record of its dead
// incarnation (copy sets, producer slots, consumer caches, exclusive
// ownership) and reset its distributed-lock entries (queued grants
// dropped, a held lock force-released to the next waiter). The reply
// is the verdict; the pruning runs only on success, so a divergent
// member never mutates survivor state.
func (n *Node) handleRecover(req *msg.Msg) vkernel.Outcome {
	reject := func(detail string) vkernel.Outcome {
		n.C.Add(stats.CRecoverRejected, 1)
		n.k.Reply(req, msg.NewBuilder(4+len(detail)).U8(recoverMismatch).Str(detail).Bytes())
		return vkernel.Replied
	}
	r := msg.NewReader(req.Payload)
	sum := r.U64()
	cnt := r.Int()
	k := r.Int()
	if f := n.setupDigestFn(); f != nil {
		mySum, myN := f()
		if mySum != sum || myN != cnt {
			return reject(fmt.Sprintf("setup digest %016x/%d != local %016x/%d", sum, cnt, mySum, myN))
		}
	}
	for i := 0; i < k; i++ {
		id := memory.ObjectID(r.U32())
		kind := EngineKind(r.U8())
		o := n.obj(id)
		if o == nil {
			return reject(fmt.Sprintf("announced object %d was never allocated here", id))
		}
		if got := o.pol.engine; got != kind {
			return reject(fmt.Sprintf("object %d engine %d != local engine %d", id, kind, got))
		}
	}
	if r.Err() != nil {
		return reject(fmt.Sprintf("corrupt announce: %v", r.Err()))
	}
	n.PeerRecovered(req.From)
	n.k.Reply(req, msg.NewBuilder(1).U8(recoverOK).Bytes())
	return vkernel.Replied
}

// PeerRecovered rebuilds this node's protocol state for a peer whose
// restarted incarnation is rejoining: every record of the dead
// incarnation is pruned (it lost all its copies with the crash, so
// relaying to it or fetching from it would be wrong), and its
// distributed-lock entries are reset. The fresh incarnation re-enters
// copy sets via its read faults and lock queues via ordinary acquires.
//
// Counters: member.recovered, plus the shared member.pruned_copies /
// member.pruned_consumers / member.reclaimed_owner from the prune.
func (n *Node) PeerRecovered(peer msg.NodeID) {
	copies, consumers, owners := n.prunePeer(peer)
	if n.locks != nil {
		n.locks.PeerRecovered(peer)
	}
	n.C.Add(stats.CMemberRecovered, 1)
	if copies > 0 {
		n.C.Add(stats.CMemberPrunedCopies, copies)
	}
	if consumers > 0 {
		n.C.Add(stats.CMemberPrunedConsumers, consumers)
	}
	if owners > 0 {
		n.C.Add(stats.CMemberReclaimedOwner, owners)
	}
}
