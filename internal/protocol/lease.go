package protocol

import (
	"fmt"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/vkernel"
)

// The Tardis-style lease engine (leaseRow). The directory engine keeps
// replicas coherent by acting on every write: the home multicasts a
// refresh or invalidation to the whole copyset, so a write to a
// read-mostly object costs O(copyset) messages — exactly the fan-out
// the paper's §3.3.5 prototype avoided by not replicating at all
// (paying a round trip per read instead). TARDIS shows a third point:
// order reads with logical timestamps and leases instead of eager
// invalidation. Here:
//
//   - The home keeps one logical version counter per object (the
//     object's applySeq — the same counter the directory engine stamps
//     relays with). A write bumps it. Nothing is multicast, and the
//     home keeps NO copyset: the engine's home state is a counter, not
//     a membership list.
//   - A reader caches the object with the version it was granted and a
//     lease bound to its node's synchronization epoch (Node.syncEpoch,
//     bumped by every DUQ flush — i.e. at every acquire/release/
//     barrier/atomic and at thread exit). While the epoch stands, reads
//     are local. Once the node synchronizes, the lease has lapsed and
//     the next read revalidates with the home, sending the version it
//     holds; an unchanged object costs a tiny version-echo reply
//     (msg.LeaseGrant{Unchanged}) instead of the bytes.
//   - Writes are write-through: the writer sends the bytes to the home,
//     the home applies them and returns the new version. A writer whose
//     cached copy was current installs its own bytes locally (read-
//     your-writes stays local); otherwise its lease is dropped and the
//     next read refetches.
//
// Coherence contract (§3.2 loose coherence, preserved): a reader that
// has not synchronized may see a stale copy — legal, the directory
// engine's delayed updates expose the same window. A thread that
// synchronizes after a writer's synchronization point sees the write:
// the write reached the home before the writer's sync op completed, and
// the reader's own sync bumped its epoch, so its next read revalidates
// against the home. What the lease engine gives up is eager delivery
// between sync points; what it gains is a write cost independent of how
// many nodes are reading — the fan-out is gone (bench E16).

// leaseRead serves a read under the lease protocol: local while the
// lease is live, a take/renew round trip to the home otherwise.
func (n *Node) leaseRead(o *Obj, off int, buf []byte) {
	if n.homeOf(&o.meta) == n.id {
		// The home copy is the authority; its reads are always local.
		o.mu.Lock()
		copy(buf, o.data[off:])
		o.mu.Unlock()
		return
	}
	// The epoch is sampled before the call: if this thread's node
	// synchronizes while the renewal is in flight, the granted lease is
	// already stale and the next read revalidates again — conservative,
	// never unsafe.
	epoch := n.syncEpoch.Load()
	o.mu.Lock()
	if o.leaseValid && o.leaseEpoch == epoch {
		copy(buf, o.data[off:])
		o.mu.Unlock()
		n.ctr.LeaseLocalReads.Inc()
		return
	}
	if o.leaseValid {
		// We hold bytes but the lease lapsed at a synchronization
		// point — the lazy pull TARDIS trades the invalidation for.
		n.ctr.LeaseExpiredReads.Inc()
	}
	req := msg.LeaseReq{Obj: uint32(o.meta.ID), Have: o.leaseValid, Ver: o.leaseVer}
	o.mu.Unlock()

	n.ctr.RMRemoteReads.Inc()
	reply, err := n.k.Call(n.homeOf(&o.meta), kindLeaseRead, req.Encode())
	if err != nil {
		panic(fmt.Sprintf("munin: lease read %q: %v", o.meta.Name, err))
	}
	g, gerr := msg.DecodeLeaseGrant(reply.Payload)
	if gerr != nil {
		panic(fmt.Sprintf("munin: lease read %q: corrupt grant: %v", o.meta.Name, gerr))
	}

	o.mu.Lock()
	switch {
	case g.Unchanged:
		// Renewed: our copy is the home's current version — but only if
		// it still is what we asked about (a concurrent local write may
		// have advanced it; then its own reply settled the state).
		if o.leaseValid && o.leaseVer == req.Ver {
			o.leaseEpoch = epoch
		}
	case g.Ver >= o.leaseVer:
		copy(o.data, g.Data)
		o.leaseVer = g.Ver
		o.leaseEpoch = epoch
		o.leaseValid = true
	default:
		// The grant lost a race against this node's own write-through,
		// which already installed a newer version; keep the newer copy
		// and let the next read renew.
	}
	copy(buf, o.data[off:])
	o.mu.Unlock()
}

// leaseWrite applies a write under the lease protocol: bump-and-apply
// at the home, write-through from everywhere else. No multicast — the
// version bump is the entire publication.
func (n *Node) leaseWrite(_ *duq.Queue, o *Obj, off int, data []byte) {
	if n.homeOf(&o.meta) == n.id {
		o.mu.Lock()
		copy(o.data[off:], data)
		o.applySeq++
		o.mu.Unlock()
		n.ctr.LeaseBumps.Inc()
		return
	}
	reply, err := n.k.Call(n.homeOf(&o.meta), kindLeaseWrite, n.remoteStorePayload(o, off, data))
	ver, _ := remoteStoreReply(o, reply, err) // the lease home redistributes nothing, so it never fails one
	o.mu.Lock()
	switch {
	case o.leaseValid && ver == o.leaseVer+1:
		// Our cached copy was current when the home applied this write:
		// installing our own bytes keeps it current at the new version,
		// so read-your-writes stays local.
		copy(o.data[off:], data)
		o.leaseVer = ver
	case o.leaseValid:
		// Other writes landed between our version and this one; the
		// cached copy is missing them. Drop the lease — the next read
		// pulls the full fresh version (including this write).
		o.leaseValid = false
	}
	o.mu.Unlock()
}

// handleLeaseRead grants or renews a lease at the home: echo the
// version when the requester is current, ship version + bytes when it
// is behind (or taking its first lease).
func (n *Node) handleLeaseRead(req *msg.Msg) vkernel.Outcome {
	lr, err := msg.DecodeLeaseReq(req.Payload)
	if err != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(memory.ObjectID(lr.Obj))
	if o == nil {
		return vkernel.Dropped
	}
	o.mu.Lock()
	ver := o.applySeq
	if lr.Have && lr.Ver == ver {
		o.mu.Unlock()
		n.ctr.LeaseRenewed.Inc()
		n.k.Reply(req, msg.LeaseGrant{Ver: ver, Unchanged: true}.Encode())
		return vkernel.Replied
	}
	g := msg.LeaseGrant{Ver: ver, Data: o.data}
	wb, b := vkernel.NewWire(g.Size())
	g.EncodeTo(&b)
	wb.B = b.Bytes()
	o.mu.Unlock()
	if lr.Have {
		n.ctr.LeaseRenewed.Inc()
	} else {
		n.ctr.LeaseGranted.Inc()
	}
	n.k.ReplyOwned(req, wb)
	return vkernel.Replied
}

// handleLeaseWrite applies a write-through at the home and bumps the
// object's logical version. The reply carries the new version; nothing
// else moves — zero invalidation multicast, no copyset bookkeeping.
func (n *Node) handleLeaseWrite(req *msg.Msg) vkernel.Outcome {
	o, off, data := n.remoteStoreFromWire(req)
	if o == nil {
		return vkernel.Dropped
	}
	o.mu.Lock()
	copy(o.data[off:], data)
	o.applySeq++
	ver := o.applySeq
	o.mu.Unlock()
	n.ctr.LeaseBumps.Inc()
	n.k.Reply(req, msg.NewBuilder(8).U64(ver).Bytes())
	return vkernel.Replied
}
