package protocol

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"munin/internal/bufpool"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// handleRead serves a copy of the object to a faulting reader. This node
// is the object's home.
func (n *Node) handleRead(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	d := n.dirEntryOf(id)
	n.ctr.HomeRead.Inc()

	pol := o.pol.Load()
	switch {
	case pol.owned:
		// The owner serves the read and stays owner; the home only adds the
		// reader to the copy set, so the owner's next write fault finds it
		// there and invalidates it. When the home owns the object it serves
		// the read as a remote owner serves a forwarded one, outside d.mu.
		d.mu.Lock()
		d.copyset[req.From] = true
		epoch := d.epoch
		if d.owner != n.id {
			out := n.forward(d, o, req, msg.NewBuilder(8).U32(uint32(id)).U32(epoch).Bytes(),
				forwarded{to: d.owner, seq: req.Seq})
			d.mu.Unlock()
			return out
		}
		d.mu.Unlock()
		return n.serveRead(o, req, epoch)

	case pol.frozen:
		// Serving the first replica ends initialisation: the home copy
		// freezes into the snapshot every later read — remote fetches
		// here, local hits in writeOnceRead — copies from. d.mu is
		// what orders this against writeOnceWrite's check-then-write.
		d.mu.Lock()
		o.mu.Lock()
		s := o.snap.view()
		if s == "" {
			s = string(o.data)
			o.snap.publish(s)
			o.data = nil
		}
		o.mu.Unlock()
		d.copyset[req.From] = true
		d.mu.Unlock()
		// Frozen bytes need no lock to encode; write-once objects are
		// never sequenced, so the snapshot is at update 0.
		wb, b := vkernel.NewWire(msg.BytesNSize(len(s)) + 8)
		b.Str(s).U64(0)
		wb.B = b.Bytes()
		n.k.ReplyOwned(req, wb)
		return vkernel.Replied

	default:
		// Replication protocols: the home copy is authoritative.
		d.mu.Lock()
		o.mu.Lock()
		wb := encodeDataReply(o.data, o.applySeq)
		o.mu.Unlock()
		d.copyset[req.From] = true
		d.rereads++
		d.mu.Unlock()
		n.k.ReplyOwned(req, wb)
		return vkernel.Replied
	}
}

// encodeDataReply builds the whole-object reply of a read fault: the
// contents and the update sequence they reflect. Caller holds o.mu when
// data is o.data.
func encodeDataReply(data []byte, seq uint64) *bufpool.Buffer {
	wb, b := vkernel.NewWire(msg.BytesNSize(len(data)) + 8)
	b.BytesN(data).U64(seq)
	wb.B = b.Bytes()
	return wb
}

// shareOwned is the owner's half of a read fault: it encodes the object
// for the reader and downgrades the local copy to Shared, so the owner's
// next write faults and invalidates the reader. Ownership stays here.
// Caller holds o.mu.
func (o *Obj) shareOwned() *bufpool.Buffer {
	o.state = Shared
	return encodeDataReply(o.data, 0)
}

// invalidate retires the local copy, and with it any ownership this node
// held; the generation bump lets a fetch whose reply is still in flight
// notice (ensureReadable). Caller holds o.mu.
func (o *Obj) invalidate() {
	o.state = Invalid
	o.genInv++
	o.owns = false
}

// awaitGrant parks the caller until this node has installed the grant of
// ownership period epoch — the period whose owner a forward was sent to
// — or has lost the object. A forward that finds the grant missing
// arrived ahead of it: the grant comes from the old owner, on a
// connection that shares no order with the home's, and serving the
// forward from the pre-grant copy would hand out bytes the grant is
// about to replace. A forward for the period this node is in is served
// at once, even while its own next ownership request waits at the home:
// requests are granted in the home's order, so a chain of owners each
// waiting for the one before it cannot close into a cycle. The period,
// not Obj.owning, is what tells the two apart: a node can be owner with
// the forward that ends its period still unserved and already be named
// owner of a later period by its own request. Caller holds o.mu.
func (o *Obj) awaitGrant(epoch uint32) {
	for int32(o.epoch-epoch) < 0 && o.lost == nil {
		o.cond.Wait()
	}
}

// encodeRemoteLoadReply builds the reply of a remote load: the bytes,
// as one length-prefixed string, and a trailing 1 once the home has
// replicated the object (§3.4.1).
func encodeRemoteLoadReply(data []byte, replicated bool) *bufpool.Buffer {
	wb, b := vkernel.NewWire(msg.BytesNSize(len(data)) + 1)
	b.BytesN(data)
	if replicated {
		b.Bool(true)
	}
	wb.B = b.Bytes()
	return wb
}

// forward passes a fault on to the object's owner f.to, which answers
// the faulting node itself (handleFwdRead, handleFwdWrite), and notes it
// in d.fwd. The caller holds d.mu and has already recorded what the
// fault changes in the directory, so forwards leave in the home's order;
// one that reaches its target ahead of the grant naming it owner parks
// there (awaitGrant), and a read forward that arrives after the write
// that ended the target's ownership finds the copy Invalid and is
// nacked. A forward that cannot be sent is refused here. A write fault
// travels as kindFwdWrite, a read fault as kindFwdRead.
func (n *Node) forward(d *dirEntry, o *Obj, req *msg.Msg, payload []byte, f forwarded) vkernel.Outcome {
	var err error
	if f.write {
		n.ctr.FwdWrite.Inc()
		err = n.k.Forward(req, f.to, kindFwdWrite, payload)
	} else {
		n.ctr.FwdRead.Inc()
		err = n.k.Forward(req, f.to, kindFwdRead, payload)
	}
	_, down := transport.PeerDownOf(err)
	switch {
	case err == nil:
		if d.fwd == nil {
			d.fwd = make(map[msg.NodeID]forwarded)
		}
		d.fwd[req.From] = f
		return vkernel.Forwarded
	case isGone(err):
		// The owner left; PeerGone is about to prune it.
		return n.refuse(o, req.From, f, nackRetry)
	case down:
		return n.refuse(o, req.From, f, nackOwnerDown)
	case isShutdown(err):
		return vkernel.Dropped
	default:
		panic(fmt.Sprintf("munin: forward a fault on object %d to node %d: %v", o.meta.ID, f.to, err))
	}
}

// refuse answers, in the lost owner's stead, the fault of node from that
// the home forwarded (f). A read is nacked: nackRetry, or nackOwnerDown
// naming the owner. A write is granted by the home only when the owner
// departed or restarted (nackRetry), which takes its unsynchronized
// bytes with it: without data when the writer's copy is current
// (f.good), else with the home's copy, as the home takes back any
// object a departed owner held (prunePeer). After a wire death
// (nackOwnerDown) the write is nacked whatever the vouch, and the
// writer, which the directory already names owner, holds the object as
// lost: the owner may be alive behind the dead wire, still holding the
// copy the unsent forward would have invalidated, and a grant from the
// home would leave that copy valid outside every copy set. Each answer
// is safe when the owner did serve the forward before it was lost, or
// the note is older than the fault's completion: the faulting node
// takes whichever reply comes first and drops the other as stray.
// Caller holds d.mu.
func (n *Node) refuse(o *Obj, from msg.NodeID, f forwarded, reason uint8) vkernel.Outcome {
	call := &msg.Msg{Kind: kindRead, From: from, Seq: f.seq}
	if f.write {
		call.Kind = kindWriteOwn
	}
	switch {
	case !f.write || reason == nackOwnerDown:
		return n.nack(call, reason, f.to)
	case f.good:
		n.k.ReplyOwned(call, encodeGrant(false, f.epoch, nil))
	default:
		o.mu.Lock()
		wb := encodeGrant(true, f.epoch, o.data)
		o.mu.Unlock()
		n.k.ReplyOwned(call, wb)
	}
	return vkernel.Replied
}

// nack answers the fault req with a nack in place of the object or the
// grant: nackRetry, or nackOwnerDown naming the lost owner.
func (n *Node) nack(req *msg.Msg, reason uint8, owner msg.NodeID) vkernel.Outcome {
	n.ctr.FwdNack.Inc()
	b := msg.NewBuilder(5).U8(reason)
	if reason == nackOwnerDown {
		b.U32(uint32(owner))
	}
	n.k.Reply(req, b.Bytes())
	return vkernel.Replied
}

// refuseForwards answers every noted fault that was forwarded to peer,
// which is lost (refuse), and forgets the note peer itself left (its
// calls died with it). Caller holds d.mu.
func (n *Node) refuseForwards(o *Obj, d *dirEntry, peer msg.NodeID, reason uint8) {
	delete(d.fwd, peer)
	for from, f := range d.fwd {
		if f.to == peer {
			delete(d.fwd, from)
			n.refuse(o, from, f, reason)
		}
	}
}

// ownedFromWire is objFromWire for the messages of the ownership
// protocols: an object whose row has no owner is counted
// (drop.misdirected) and yields nil.
func (n *Node) ownedFromWire(id memory.ObjectID) *Obj {
	o := n.objFromWire(id)
	if o != nil && !o.pol.Load().owned {
		n.ctr.DropMisdirected.Inc()
		return nil
	}
	return o
}

// testHookFwdRead, when a test sets it, runs in the owner's forwarded-read
// handler: with "arrived" before the copy is looked at, with "served"
// after it has been encoded and before the reply is sent.
var testHookFwdRead func(stage string)

// handleFwdRead serves a read fault the home forwarded to this node as
// the owner of the object's ownership period epoch: the reply goes to the
// reader (req.From is the reader, not the home — vkernel.Forward).
func (n *Node) handleFwdRead(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	epoch := r.U32()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	if testHookFwdRead != nil {
		testHookFwdRead("arrived")
	}
	o := n.ownedFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	return n.serveRead(o, req, epoch)
}

// serveRead is the owner's half of a read fault: it shares the copy with
// the reader, once any grant this node awaits is installed (awaitGrant).
// A node that no longer holds a valid copy — its ownership ended before
// the fault got here — says so, and the reader asks the home again. A
// node that holds one may serve it whether or not it still owns the
// object: the reader has been in the copy set since before the fault
// left the home, so any write granted since has invalidated the reader,
// and its generation check discards whatever this reply carries.
func (n *Node) serveRead(o *Obj, req *msg.Msg, epoch uint32) vkernel.Outcome {
	o.mu.Lock()
	o.awaitGrant(epoch)
	if lost := o.lost; lost != nil {
		o.mu.Unlock()
		owner, _ := transport.PeerDownOf(lost)
		return n.nack(req, nackOwnerDown, owner)
	}
	if o.state == Invalid {
		o.mu.Unlock()
		return n.nack(req, nackRetry, 0)
	}
	wb := o.shareOwned()
	o.mu.Unlock()
	n.ctr.FetchServed.Inc()
	if testHookFwdRead != nil {
		testHookFwdRead("served")
	}
	n.k.ReplyOwned(req, wb)
	return vkernel.Replied
}

// handleWriteOwn grants exclusive ownership to the requester after
// retiring every other copy (strict coherence for the ownership
// protocols). This node is the home; d.mu serializes conflicting
// requests for the same object, and is never held across a remote
// owner's round trip.
//
// Every copy holder but the requester and the old owner is retired by
// the concurrent kindInv round. The directory then names the requester
// owner and sole holder, and the old owner is left to hand ownership on:
// the home forwards the request to a remote old owner (kindFwdWrite),
// which invalidates its copy and grants the requester directly, and
// serves it itself, outside d.mu, when it is the old owner. A requester
// that already owns the object is granted by the home.
//
// The grant carries no data when the requester vouched for its copy
// (ownershipWrite: state != Invalid when the request was built) and is
// still in the copy set now. The two facts together mean the copy is
// valid and current, whoever the owner is:
//
//   - A copy is invalidated only by a handleWriteOwn that, in the same
//     hold of d.mu, removes its node from the copy set (the kindInv round,
//     or the reset that retires the old owner, whose forward invalidates
//     it), or by its own node's Evict.
//   - A node enters the copy set only by a request of its own (kindRead,
//     kindWriteOwn). Between vouching and the grant the requester has
//     neither outstanding: a node runs one fault per object at a time
//     (Obj.fetching, Obj.owning), and Evict waits for both.
//
// So a requester that vouched and was since invalidated cannot be back in
// the copy set — it finds itself missing and is sent the bytes — and one
// that is in the copy set has not been invalidated since it vouched.
func (n *Node) handleWriteOwn(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	vouched := r.Bool()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.ownedFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	if n.homeOf(&o.meta) != n.id {
		n.ctr.DropMisdirected.Inc()
		return vkernel.Dropped
	}
	d := n.dirEntryOf(id)
	n.ctr.HomeWriteOwn.Inc()

	d.mu.Lock()
	requester, oldOwner, epoch := req.From, d.owner, d.epoch
	good := vouched && d.copyset[requester]
	n.invalidateCopies(o, d, requester, oldOwner)
	// Every grant starts a period, an upgrade by the owner included: the
	// home's own threads install theirs through the dispatcher, and until
	// they have, the home's service of the next fault must park.
	d.owner, d.epoch = requester, epoch+1
	d.copyset = map[msg.NodeID]bool{requester: true}
	var out vkernel.Outcome
	switch oldOwner {
	case requester:
		// An owner's copy is valid (a node whose ownership was lost
		// refuses its own faults). The grant goes out before d.mu is
		// released, so the next forward to this owner cannot overtake it.
		n.k.ReplyOwned(req, encodeGrant(false, epoch+1, nil))
		out = vkernel.Replied
	case n.id:
		d.mu.Unlock()
		return n.serveWrite(o, req, epoch, good)
	default:
		f := forwarded{to: oldOwner, seq: req.Seq, epoch: epoch + 1, write: true, good: good}
		out = n.forward(d, o, req, msg.NewBuilder(9).U32(uint32(id)).U32(epoch).Bool(good).Bytes(), f)
	}
	d.mu.Unlock()
	return out
}

// invalidateCopies retires every copy of the object but the requester's
// and the old owner's, all at once: one kindInv per remote holder is
// started before any acknowledgment is awaited, so the round costs the
// slowest holder's round trip, not the sum. Holders are taken in node-ID
// order, which makes the round's traffic repeat. A holder that departed
// cleanly took its copy with it; any other failure leaves a copy nobody
// can vouch for. The caller holds d.mu and resets the copy set afterwards.
func (n *Node) invalidateCopies(o *Obj, d *dirEntry, requester, oldOwner msg.NodeID) {
	var arr [8]msg.NodeID
	remote := arr[:0]
	for member := range d.copyset {
		switch member {
		case requester, oldOwner:
		case n.id:
			o.mu.Lock()
			o.invalidate()
			o.mu.Unlock()
		default:
			remote = append(remote, member)
		}
	}
	slices.Sort(remote)
	inv := msg.NewBuilder(4).U32(uint32(o.meta.ID)).Bytes()
	var parr [8]*vkernel.Pending
	pends := parr[:0]
	for _, member := range remote {
		n.ctr.HomeInv.Inc()
		p, err := n.k.CallStart(member, kindInv, inv)
		if err != nil && !n.relayBenign(err) {
			panic(fmt.Sprintf("munin: invalidate object %d at node %d: %v", o.meta.ID, member, err))
		}
		pends = append(pends, p) // nil if the holder is gone: nothing to await
	}
	for i, p := range pends {
		if _, err := p.Wait(); err != nil && !n.relayBenign(err) {
			panic(fmt.Sprintf("munin: invalidate object %d at node %d: %v", o.meta.ID, remote[i], err))
		}
	}
}

// testHookFwdWrite, when a test sets it, runs in the old owner's half of
// a write fault at node n: with "arrived" when a forwarded write has been
// decoded, with "served" after the grant has been encoded and the copy
// invalidated, before the grant is sent.
var testHookFwdWrite func(n *Node, stage string)

// handleFwdWrite serves a write fault the home forwarded to this node as
// the owner of the object's ownership period epoch, which the write ends:
// the grant goes to the writer (req.From).
func (n *Node) handleFwdWrite(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	epoch := r.U32()
	good := r.Bool()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	if testHookFwdWrite != nil {
		testHookFwdWrite(n, "arrived")
	}
	o := n.ownedFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	return n.serveWrite(o, req, epoch, good)
}

// serveWrite is the old owner's half of a write fault that ends
// ownership period epoch: once this node has installed that period's
// grant (awaitGrant), it invalidates its copy and grants the writer the
// next period — without data when the home found the writer's vouch
// good, else with the bytes, which cross the wire once. A node whose
// ownership was lost passes the loss on to the writer. A node that does
// not own the period was sent a forward the protocol never sends: it is
// counted and dropped.
func (n *Node) serveWrite(o *Obj, req *msg.Msg, epoch uint32, good bool) vkernel.Outcome {
	o.mu.Lock()
	o.awaitGrant(epoch)
	if lost := o.lost; lost != nil {
		o.mu.Unlock()
		owner, _ := transport.PeerDownOf(lost)
		return n.nack(req, nackOwnerDown, owner)
	}
	if !o.owns || o.epoch != epoch {
		o.mu.Unlock()
		n.ctr.DropMisdirected.Inc()
		return vkernel.Dropped
	}
	grant := encodeGrant(!good, epoch+1, o.data)
	o.invalidate()
	o.mu.Unlock()
	if !good {
		n.ctr.FetchServed.Inc()
	}
	if testHookFwdWrite != nil {
		testHookFwdWrite(n, "served")
	}
	n.k.ReplyOwned(req, grant)
	return vkernel.Replied
}

// encodeGrant builds an ownership grant: whether the requester needs
// the object's bytes (it does unless its copy is valid), the ownership
// period it starts, then the bytes.
func encodeGrant(hasData bool, epoch uint32, fresh []byte) *bufpool.Buffer {
	size := 5
	if hasData {
		size += msg.BytesNSize(len(fresh))
	}
	wb, b := vkernel.NewWire(size)
	b.Bool(hasData).U32(epoch)
	if hasData {
		b.BytesN(fresh)
	}
	wb.B = b.Bytes()
	return wb
}

// testHookInv, when a test sets it, runs in handleInv before the copy is
// touched.
var testHookInv func()

// handleInv invalidates the local copy. It must not wait for any
// in-flight ownership request: an invalidation can legitimately arrive
// while this node's own WriteOwn is queued behind another node's at the
// home, and the later grant will overwrite with fresh data anyway.
func (n *Node) handleInv(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	if testHookInv != nil {
		testHookInv()
	}
	o.mu.Lock()
	o.invalidate()
	o.mu.Unlock()
	n.ctr.InvReceived.Inc()
	n.k.Reply(req, nil)
	return vkernel.Replied
}

// decodeScratch is the receive-side pooled scratch: a handler decodes
// a message's span headers into it (the bytes stay in the payload the
// handler was handed), installs them under the object locks (copying
// into o.data, or cloning when an out-of-order update must be parked —
// see applyRefresh), and returns it before replying. Nothing decoded
// into it may outlive the handler. It also carries the working
// state of a home merge (homeMergeBatch), so merging a batch — of one
// entry or of many — allocates nothing but the relay payloads.
type decodeScratch struct {
	spans   []memory.Span // decoded spans; their bytes alias the payload they came from
	entries []batchEntry  // decoded diffs (handleDiffBatch)
	applies []applyEntry  // decoded refreshes (handleApplyBatch), or the relay groups' entries

	ids     []memory.ObjectID  // entry IDs in relayMu lock order
	locked  []*dirEntry        // directory entries whose relayMu the merge holds
	seqs    []uint64           // assigned sequence numbers, in entry order
	relays  []relay            // what each copy holder must receive
	members []msg.NodeID       // one relay group's holders
	pends   []*vkernel.Pending // started relays awaiting their acks

	// A barrier's merge (barrierMerge) takes entries from several
	// senders: froms[i] sent entry i, and the relays to carriers — the
	// participants whose releases carry their updates — are left in
	// relays for the releases instead of being sent. pushes are the
	// producer-consumer pushes the arrivals carry, and parts each
	// arrival's release.
	froms    []msg.NodeID
	carriers []msg.NodeID
	pushes   []pushEntry
	nodes    []msg.NodeID // member-set arena behind pushes
	parts    []releasePart
}

// relay is one (copy holder, entry index) pair of a home merge: the
// holder must be sent that entry's update. sent marks a holder's run
// once a relay group has taken it.
type relay struct {
	to    msg.NodeID
	entry int
	sent  bool
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getDecodeScratch() *decodeScratch { return decodeScratchPool.Get().(*decodeScratch) }

func putDecodeScratch(ds *decodeScratch) {
	// Drop what holds pointers (span headers, directory entries,
	// Pendings); capacity is the point of pooling.
	clear(ds.entries)
	clear(ds.applies)
	clear(ds.locked)
	clear(ds.pends)
	clear(ds.pushes)
	clear(ds.parts)
	ds.spans, ds.entries, ds.applies = ds.spans[:0], ds.entries[:0], ds.applies[:0]
	ds.ids, ds.locked, ds.seqs = ds.ids[:0], ds.locked[:0], ds.seqs[:0]
	ds.relays, ds.members, ds.pends = ds.relays[:0], ds.members[:0], ds.pends[:0]
	ds.froms, ds.carriers = ds.froms[:0], ds.carriers[:0]
	ds.pushes, ds.nodes, ds.parts = ds.pushes[:0], ds.nodes[:0], ds.parts[:0]
	decodeScratchPool.Put(ds)
}

// mergeStamp applies entry i of a delayed-update batch to the
// authoritative home copy, stamps it with the object's next update
// sequence number (returned), and records in ds.relays the copy holders
// the update must be relayed to (write-many only; result objects stop
// at the home — the collector reads the merged copy there). An update
// this node sent is already in the home copy: its thread wrote it there.
// The caller must hold the object's relayMu.
func (n *Node) mergeStamp(ds *decodeScratch, i int, e batchEntry, from msg.NodeID) uint64 {
	o := n.mustObj(e.id)
	d := n.dirEntryOf(e.id)
	n.ctr.HomeDiff.Inc()

	d.mu.Lock()
	o.mu.Lock()
	if from != n.id {
		if o.dirty.Touches(e.spans) {
			// Diagnostic only: an incoming update to bytes this node has
			// written and not yet flushed means the application raced
			// (loose coherence allows either value).
			n.ctr.RaceDetected.Inc()
		}
		memory.ApplySpans(o.data, e.spans)
	}
	o.applySeq++
	seq := o.applySeq
	if o.pol.Load().relay {
		for m := range d.copyset {
			if m != n.id && m != from {
				ds.relays = append(ds.relays, relay{to: m, entry: i})
			}
		}
	}
	d.rereads = 0
	o.mu.Unlock()
	d.mu.Unlock()
	return seq
}

// batchEntry is one (object, spans) element of a delayed-update batch.
type batchEntry struct {
	id    memory.ObjectID
	spans []memory.Span
}

// applyEntry is one (object, sequence, spans) element of a
// kindApplyBatch sequenced refresh.
type applyEntry struct {
	id    memory.ObjectID
	seq   uint64
	spans []memory.Span
}

// encodeApplyBatch builds the kindApplyBatch payload: a count followed
// by length-prefixed entries in the given order, sized exactly in one
// pass (like encodeDiffBatch).
func encodeApplyBatch(entries []applyEntry) []byte {
	size := 4
	for _, e := range entries {
		esz := 12 + memory.EncodedSpansSize(e.spans)
		size += msg.UvarintLen(uint64(esz)) + esz
	}
	var b msg.Builder
	b.Reset(make([]byte, 0, size))
	b.U32(uint32(len(entries)))
	for _, e := range entries {
		b.Uvarint(uint64(12 + memory.EncodedSpansSize(e.spans)))
		b.U32(uint32(e.id)).U64(e.seq)
		memory.EncodeSpans(&b, e.spans)
	}
	return b.Bytes()
}

// countBatch records the counters for one batch message of the given
// entry count and payload size.
func (n *Node) countBatch(objs, payloadBytes int) {
	n.ctr.BatchSent.Inc()
	n.ctr.BatchObjs.Add(int64(objs))
	n.ctr.BatchBytes.Add(int64(payloadBytes))
}

// homeMergeBatch is the home-side half of the delayed-update protocol:
// it merges a batch in entry order and redistributes the updates to the
// other copy holders (sendRelays). It returns the assigned sequence
// numbers, in entry order; they live in ds, like the rest of the merge's
// working state. The error is a relay that failed (its holder's wire
// died): the merge itself has happened, every other relay was sent and
// acknowledged, and the error goes back to whoever sent the updates
// (relay.failed).
//
// from sent every entry, unless ds.froms names each entry's sender.
func (n *Node) homeMergeBatch(ds *decodeScratch, entries []batchEntry, from msg.NodeID) ([]uint64, error) {
	n.lockRelays(ds, entries)
	defer unlockRelays(ds)
	n.stampBatch(ds, entries, from)
	return ds.seqs, n.sendRelays(ds, entries)
}

// lockRelays takes the relayMu of every entry's object. relayMu
// serializes the stamp+relay+ack round per object: an acknowledged diff
// implies every earlier diff for the object has been installed at every
// copy, which is what lets a flush-then-synchronize sequence guarantee
// visibility. Lock in object-ID order: entry order is the sender's
// first-modification order, so two concurrent batches could otherwise
// lock in conflicting orders and deadlock.
func (n *Node) lockRelays(ds *decodeScratch, entries []batchEntry) {
	for _, e := range entries {
		ds.ids = append(ds.ids, e.id)
	}
	slices.Sort(ds.ids)
	for i, id := range ds.ids {
		if i > 0 && id == ds.ids[i-1] {
			continue
		}
		d := n.dirEntryOf(id)
		d.relayMu.LockOrdered(uint64(id))
		ds.locked = append(ds.locked, d)
	}
}

func unlockRelays(ds *decodeScratch) {
	for _, d := range ds.locked {
		d.relayMu.Unlock()
	}
}

// stampBatch merges and stamps every entry in entry order, appending
// the sequence numbers to ds.seqs and the relays they need to ds.relays.
func (n *Node) stampBatch(ds *decodeScratch, entries []batchEntry, from msg.NodeID) {
	for i, e := range entries {
		if len(ds.froms) > 0 {
			from = ds.froms[i]
		}
		ds.seqs = append(ds.seqs, n.mergeStamp(ds, i, e, from))
	}
}

// sendRelays sends ds.relays, each entries[r.entry] at ds.seqs[r.entry],
// grouped so each holder receives a single message carrying its updates
// in entry order (per-receiver program order), and waits for the acks.
// A relay to a node in ds.carriers is left in ds.relays unsent, for the
// barrier release that carries it.
func (n *Node) sendRelays(ds *decodeScratch, entries []batchEntry) error {
	if len(ds.relays) == 0 {
		return nil
	}
	// Sorted by holder (stably, so each holder's run lists its entries in
	// entry order), holders that need the identical update list form one
	// group — the common case, every object replicated at the same
	// nodes, is one multicast for the whole batch. Every group's relay
	// starts on the coalescing writer before any ack is collected, so
	// distinct groups overlap in the per-peer writers with no goroutine
	// hop per group.
	slices.SortStableFunc(ds.relays, func(a, b relay) int { return cmp.Compare(a.to, b.to) })
	var firstErr error
	failed := func(err error) {
		if err != nil && !n.relayBenign(err) {
			n.ctr.RelayFailed.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("relay to copy holders: %w", err)
			}
		}
	}
	for lo := 0; lo < len(ds.relays); {
		run := holderRun(ds.relays[lo:])
		lo += len(run)
		if run[0].sent || slices.Contains(ds.carriers, run[0].to) {
			continue
		}
		ds.members = append(ds.members[:0], run[0].to)
		for next := lo; next < len(ds.relays); {
			other := holderRun(ds.relays[next:])
			next += len(other)
			if !other[0].sent && !slices.Contains(ds.carriers, other[0].to) && slices.EqualFunc(run, other, sameEntry) {
				ds.members = append(ds.members, other[0].to)
				other[0].sent = true
			}
		}
		first := len(ds.applies)
		for _, r := range run {
			e := entries[r.entry]
			ds.applies = append(ds.applies, applyEntry{id: e.id, seq: ds.seqs[r.entry], spans: e.spans})
		}
		payload := encodeApplyBatch(ds.applies[first:])
		n.ctr.HomeRelay.Inc()
		n.countBatch(len(run), len(payload))
		p, err := n.k.MulticastCallStart(ds.members, kindApplyBatch, payload)
		if err != nil {
			failed(err)
			continue
		}
		ds.pends = append(ds.pends, p)
	}
	for _, p := range ds.pends {
		_, err := p.Wait()
		failed(err)
	}
	return firstErr
}

// holderRun returns the leading pairs of relays that share one holder.
func holderRun(relays []relay) []relay {
	n := 1
	for n < len(relays) && relays[n].to == relays[0].to {
		n++
	}
	return relays[:n]
}

// sameEntry reports whether two relays carry the same entry, whoever
// the holders are.
func sameEntry(a, b relay) bool { return a.entry == b.entry }

// handleDiffBatch merges one sender's flush into the home copies in
// entry order and replies with the per-entry sequence numbers. The
// relay excludes the sender, so the sender advances its own copies'
// sequences from the reply instead (otherwise every later relay to it
// would look like a gap and park forever).
func (n *Node) handleDiffBatch(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	count := int(r.U32())
	// Each entry costs at least 9 bytes on the wire (1-byte length
	// prefix, 4-byte object ID, 4-byte span count), so a count word
	// claiming more is corrupt — reject before trusting it.
	if r.Err() != nil || count < 0 || count > r.Remaining()/9 {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	for i := 0; i < count; i++ {
		e := r.Entry()
		id := memory.ObjectID(e.U32())
		lo := len(ds.spans)
		ds.spans = memory.DecodeSpansView(ds.spans, e)
		if e.Err() != nil || r.Err() != nil {
			n.ctr.DropMalformed.Inc()
			return vkernel.Dropped
		}
		if n.entryFromWire(id, ds.spans[lo:]) == nil {
			return vkernel.Dropped
		}
		ds.entries = append(ds.entries, batchEntry{id: id, spans: ds.spans[lo:len(ds.spans):len(ds.spans)]})
	}
	// The merge both installs the spans (copying into the home copies)
	// and relays them (copying into the relay payloads), so the scratch
	// is dead by the time the reply goes out.
	seqs, err := n.homeMergeBatch(ds, ds.entries, req.From)
	// The reply is the sequence numbers, followed by the relay's error
	// when one failed: the writer settles its copies either way.
	text := ""
	if err != nil {
		text = err.Error()
	}
	b := msg.NewBuilder(4 + 8*len(seqs) + len(text) + 2)
	b.U32(uint32(len(seqs)))
	for _, s := range seqs {
		b.U64(s)
	}
	if text != "" {
		b.Str(text)
	}
	n.k.Reply(req, b.Bytes())
	return vkernel.Replied
}

// entryFromWire is objFromWire for a batch entry: it also counts as
// malformed, and yields nil for, an entry with a span outside the object
// — a peer's bad input, not this program's bug.
func (n *Node) entryFromWire(id memory.ObjectID, spans []memory.Span) *Obj {
	o := n.objFromWire(id)
	if o == nil {
		return nil
	}
	for _, sp := range spans {
		if !inRange(o, sp.Off, len(sp.Data)) {
			n.ctr.DropMalformed.Inc()
			return nil
		}
	}
	return o
}

// handleApplyBatch installs sequenced refreshes at a copy, in entry
// order, so a local reader can never observe a later entry's update
// while missing an earlier one. The whole batch is decoded before
// anything is installed: a batch malformed at any entry is dropped
// without having changed a byte.
func (n *Node) handleApplyBatch(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	count := int(r.U32())
	// At least 17 bytes an entry: the diff entry's 9 plus the sequence.
	if r.Err() != nil || count < 0 || count > r.Remaining()/17 {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	for i := 0; i < count; i++ {
		e := r.Entry()
		id := memory.ObjectID(e.U32())
		seq := e.U64()
		lo := len(ds.spans)
		ds.spans = memory.DecodeSpansView(ds.spans, e)
		if e.Err() != nil || r.Err() != nil {
			n.ctr.DropMalformed.Inc()
			return vkernel.Dropped
		}
		if n.entryFromWire(id, ds.spans[lo:]) == nil {
			return vkernel.Dropped
		}
		ds.applies = append(ds.applies, applyEntry{id: id, seq: seq, spans: ds.spans[lo:len(ds.spans):len(ds.spans)]})
	}
	for _, e := range ds.applies {
		n.applyRefresh(n.mustObj(e.id), e.seq, e.spans)
	}
	n.k.Reply(req, nil)
	return vkernel.Replied
}

// isShutdown reports whether an error is a benign consequence of the
// cluster shutting down while asynchronous relays were in flight.
func isShutdown(err error) bool {
	return transport.IsClosed(err) || vkernel.IsClosed(err)
}

// applyRefresh installs one sequenced refresh at a local copy, parking
// out-of-order updates.
func (n *Node) applyRefresh(o *Obj, seq uint64, spans []memory.Span) {
	o.mu.Lock()
	n.ctr.ApplyReceived.Inc()
	switch {
	case o.state == Invalid:
		// No installed copy. A fetch may be in flight (the home added
		// us to the copyset when it started serving it), so the update
		// must not be dropped: park it. The fetch install drains every
		// parked update newer than its snapshot (alignSeq); parked
		// updates at or below the snapshot are discarded there. The
		// spans alias the message they arrived in, so parking — the one
		// place they outlive the handler — clones them rather than keep
		// the whole message alive.
		o.pendApply[seq] = memory.CloneSpans(spans)
		o.mu.Unlock()
	case seq <= o.applySeq:
		// Duplicate/old update (we fetched a newer snapshot already).
		o.mu.Unlock()
	case seq == o.applySeq+1:
		memory.ApplySpans(o.data, spans)
		o.applySeq = seq
		// Drain any parked successors.
		for {
			next, ok := o.pendApply[o.applySeq+1]
			if !ok {
				break
			}
			delete(o.pendApply, o.applySeq+1)
			memory.ApplySpans(o.data, next)
			o.applySeq++
		}
		o.mu.Unlock()
	default:
		// Gap. For write-many/read-mostly objects the missing
		// sequence numbers are this node's own in-flight diffs (the
		// home's relay excludes the sender; the diff reply advances
		// our sequence and drains parked updates), so parking is both
		// sufficient and required — a refetch here could install a
		// home snapshot that predates our in-flight diff and revert
		// our own writes. Only producer-consumer copies resync from
		// the home: their gaps are registration races (a push that
		// predates our registration never reached us and no reply
		// will ever advance past it), and consumers hold no buffered
		// writes, so the wholesale install is safe for them.
		n.ctr.ApplyGap.Inc()
		o.pendApply[seq] = memory.CloneSpans(spans) // see the Invalid case

		if o.pol.Load().flush == flushConsumers && !o.isProducer && o.dirty.Empty() {
			o.state = Invalid
			o.genInv++
			o.mu.Unlock()
			n.ensureReadable(o) // refetch + alignSeq drains pendApply
		} else {
			o.mu.Unlock()
		}
	}
}

// handleRemRead serves a remote load (a read-mostly object not yet
// replicated, a result object read away from the collector). Under
// Options.Dynamic the home of a read-mostly object swaps in
// replicatedRow once the loads dominate the stores (§3.4.1), and from
// that load on its replies say so.
func (n *Node) handleRemRead(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	off := r.Int()
	ln := r.Int()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	if !inRange(o, off, ln) {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	pol := o.pol.Load()
	if pol.remote && !pol.relay && o.meta.Opts.Dynamic {
		d := n.dirEntryOf(id)
		d.mu.Lock()
		d.reads++
		if pol = o.pol.Load(); !pol.relay && d.reads >= 32 && d.reads >= 4*(d.writes+1) {
			pol = &replicatedRow
			o.pol.Store(pol)
			n.ctr.ModeSwitch.Inc()
		}
		d.mu.Unlock()
	}
	o.mu.Lock()
	wb := encodeRemoteLoadReply(o.data[off:off+ln], pol.remote && pol.relay)
	o.mu.Unlock()
	n.ctr.HomeRemRead.Inc()
	n.k.ReplyOwned(req, wb)
	return vkernel.Replied
}

// remoteStoreFromWire decodes a remote store at the home (kindRemWrite,
// kindLeaseWrite): the object, the offset, and the bytes, which are the
// handler's to keep (transport.Endpoint.Recv). A store that does not
// decode or does not fit its object is counted and yields a nil object.
func (n *Node) remoteStoreFromWire(req *msg.Msg) (*Obj, int, []byte) {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	off := r.Int()
	data := r.BytesN()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return nil, 0, nil
	}
	o := n.objFromWire(id)
	if o != nil && !inRange(o, off, len(data)) {
		n.ctr.DropMalformed.Inc()
		return nil, 0, nil
	}
	return o, off, data
}

// handleRemWrite applies a remote store to a read-mostly object at its
// home. The reply is the update's sequence number, followed by the
// redistribution's error when it failed: the store stands either way.
func (n *Node) handleRemWrite(req *msg.Msg) vkernel.Outcome {
	o, off, data := n.remoteStoreFromWire(req)
	if o == nil {
		return vkernel.Dropped
	}
	n.ctr.HomeRemWrite.Inc()
	d := n.dirEntryOf(o.meta.ID)
	d.mu.Lock()
	d.writes++
	d.mu.Unlock()

	seq, err := n.homeRemoteStore(o, off, data, req.From)
	b := msg.NewBuilder(16)
	b.U64(seq)
	if err != nil {
		b.Str(err.Error())
	}
	n.k.Reply(req, b.Bytes())
	return vkernel.Replied
}

// testHookRemoteStoreApplied, when a test sets it, runs in
// homeRemoteStore once the store from node from is in the home copy and
// before the row is read.
var testHookRemoteStoreApplied func(from msg.NodeID)

// homeRemoteStore applies a store to a read-mostly object at its home
// and, once the object is replicated, redistributes it to every copy but
// the writer's: refresh pushes the new bytes, invalidate drops the
// copies (§3.4.2). With Options.Dynamic the mode adapts: in invalidate
// mode, if at least half the dropped copies refetched before the next
// write, refreshing would have been cheaper, so switch; in refresh mode,
// probe with an invalidation every 8th update to re-measure. It returns
// the update's sequence number (0 while the object is not replicated)
// and the redistribution's error, counted relay.failed.
func (n *Node) homeRemoteStore(o *Obj, off int, data []byte, from msg.NodeID) (uint64, error) {
	o.mu.Lock()
	copy(o.data[off:], data)
	o.mu.Unlock()
	if testHookRemoteStoreApplied != nil {
		testHookRemoteStoreApplied(from)
	}
	// The row is read after the store is in: a copy fetched after a
	// switch this store did not see holds the store already.
	if pol := o.pol.Load(); !pol.remote || !pol.relay {
		return 0, nil
	}

	id := o.meta.ID
	d := n.dirEntryOf(id)
	d.relayMu.Lock()
	defer d.relayMu.Unlock()
	d.mu.Lock()
	if o.meta.Opts.Dynamic {
		if d.updMode == Invalidate && d.dropped > 0 && d.rereads*2 >= d.dropped {
			d.updMode = Refresh
			n.ctr.ModeSwitch.Inc()
		}
	}
	o.mu.Lock()
	// Stored again under the stamp, so that of two concurrent stores to
	// the same bytes the home copy ends with the one stamped last, as
	// every copy does.
	copy(o.data[off:], data)
	o.applySeq++
	seq := o.applySeq
	o.mu.Unlock()
	probe := o.meta.Opts.Dynamic && d.updMode == Refresh && seq%8 == 0
	mode := d.updMode
	if probe {
		mode = Invalidate
	}
	var members []msg.NodeID
	for m := range d.copyset {
		if m != n.id && m != from {
			members = append(members, m)
		}
	}
	if mode == Invalidate {
		for _, m := range members {
			delete(d.copyset, m)
		}
		d.dropped = int64(len(members))
	}
	d.rereads = 0
	d.mu.Unlock()

	if len(members) == 0 {
		return seq, nil
	}
	// A refresh is a one-entry sequenced batch; an invalidation is the
	// ownership protocols' kindInv — the same state change at the copy.
	n.ctr.HomeRelay.Inc()
	var err error
	if mode == Refresh {
		payload := encodeApplyBatch([]applyEntry{{id: id, seq: seq, spans: []memory.Span{{Off: off, Data: data}}}})
		n.countBatch(1, len(payload))
		_, err = n.k.MulticastCall(members, kindApplyBatch, payload)
	} else {
		_, err = n.k.MulticastCall(members, kindInv, msg.NewBuilder(4).U32(uint32(id)).Bytes())
	}
	if err != nil && !n.relayBenign(err) {
		n.ctr.RelayFailed.Inc()
		return seq, fmt.Errorf("relay to copy holders: %w", err)
	}
	return seq, nil
}

// handleRegCons registers a producer or consumer for a
// producer-consumer object and returns the current contents + sequence.
func (n *Node) handleRegCons(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	isProducer := r.Bool()
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	consumers, producer, snap, seq, ok := n.registerPC(o, req.From, isProducer)
	if !ok {
		// The refusal is the recorded producer's ID, shorter than any
		// registration reply; the registering thread panics on it.
		n.ctr.ProducerRefused.Inc()
		n.k.Reply(req, msg.NewBuilder(4).U32(uint32(producer)).Bytes())
		return vkernel.Replied
	}
	if !isProducer {
		consumers = nil // only the producer is told who consumes
	}
	o.mu.Lock()
	if snap == nil {
		snap, seq = o.data, o.applySeq
	}
	wb, b := vkernel.NewWire(msg.BytesNSize(len(snap)) + 8 + 4 + 4*len(consumers))
	b.BytesN(snap).U64(seq)
	o.mu.Unlock()
	b.U32(uint32(len(consumers)))
	for _, c := range consumers {
		b.U32(uint32(c))
	}
	wb.B = b.Bytes()
	n.k.ReplyOwned(req, wb)
	return vkernel.Replied
}

// registerPC is the home's half of a producer-consumer registration:
// it records from as the object's producer or as a consumer and returns
// the consumer set as the producer caches it. A producer registration
// from a node other than the recorded producer is refused: ok is false
// and producer names the recorded one. The home's own registrations
// (becomeProducer at the home) call it directly rather than through a
// message to itself. snap, when not nil, is the contents a new consumer
// starts from, at sequence number seq: the producer's own copy, taken
// when it learned the new set.
func (n *Node) registerPC(o *Obj, from msg.NodeID, isProducer bool) (consumers []msg.NodeID, producer msg.NodeID, snap []byte, seq uint64, ok bool) {
	d := n.dirEntryOf(o.meta.ID)
	d.mu.Lock()
	if isProducer {
		if d.producer >= 0 && d.producer != from {
			producer = d.producer
			d.mu.Unlock()
			return nil, producer, nil, 0, false
		}
		d.producer = from
	} else {
		d.copyset[from] = true
	}
	consumers = make([]msg.NodeID, 0, len(d.copyset))
	for m := range d.copyset {
		if m != n.id && m != d.producer {
			consumers = append(consumers, m)
		}
	}
	producer = d.producer

	// A new consumer must be known to the producer before its first
	// read returns, so every subsequent push reaches it. The update is
	// therefore made — a Call, acknowledged, when the producer is
	// another node — before the contents are snapshot. A push the
	// producer stamped before it learned the set may not have reached
	// the home yet: it can wait in a barrier arrival until the barrier
	// completes, which a consumer that takes part in that barrier holds
	// up by registering. So a producer on another node answers with its
	// own copy and sequence number, taken under the same o.mu hold as
	// the new set: every push it stamped before is covered by that base,
	// and every push it stamps after names the new consumer. d.mu is
	// held until the producer has the set, so two registrations' sets
	// reach it in the order they were taken: otherwise the older could
	// land last and drop the newer consumer from every later push.
	defer d.mu.Unlock()
	switch {
	case isProducer || producer < 0 || producer == from:
	case producer == n.id:
		o.mu.Lock()
		o.consumers = consumers
		o.mu.Unlock()
	default:
		ub := msg.NewBuilder(16)
		ub.U32(uint32(o.meta.ID)).U32(uint32(len(consumers)))
		for _, c := range consumers {
			ub.U32(uint32(c))
		}
		reply, err := n.k.Call(producer, kindConsUpd, ub.Bytes())
		if err != nil && !n.relayBenign(err) {
			panic(fmt.Sprintf("munin: consumer-set update for object %d: %v", o.meta.ID, err))
		}
		// An empty reply: the producer has stamped nothing yet, so the
		// home's copy is current.
		if err == nil && len(reply.Payload) > 0 {
			r := msg.NewReader(reply.Payload)
			seq = r.U64()
			if data := r.BytesN(); r.Err() == nil && len(data) == len(o.data) {
				snap = data
			}
		}
	}
	return consumers, producer, snap, seq, true
}

// handleConsUpd refreshes the producer's cached consumer set and, once
// this node produces the object, answers with its copy and its last
// stamped sequence number (registerPC): empty before then.
func (n *Node) handleConsUpd(req *msg.Msg) vkernel.Outcome {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	nc := int(r.U32())
	if nc > r.Remaining()/4 {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	consumers := make([]msg.NodeID, 0, nc)
	for i := 0; i < nc; i++ {
		consumers = append(consumers, msg.NodeID(r.U32()))
	}
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return vkernel.Dropped
	}
	o := n.objFromWire(id)
	if o == nil {
		return vkernel.Dropped
	}
	o.mu.Lock()
	o.consumers = consumers // never nil: becomeProducer keeps it
	if !o.isProducer {
		o.mu.Unlock()
		n.k.Reply(req, nil)
		return vkernel.Replied
	}
	wb, b := vkernel.NewWire(8 + msg.BytesNSize(len(o.data)))
	b.U64(o.prodSeq).BytesN(o.data)
	o.mu.Unlock()
	wb.B = b.Bytes()
	n.k.ReplyOwned(req, wb)
	return vkernel.Replied
}

// handleEvict removes a node from the copyset after it paged the copy
// out.
func (n *Node) handleEvict(req *msg.Msg) {
	r := msg.NewReader(req.Payload)
	id := memory.ObjectID(r.U32())
	if r.Err() != nil {
		n.ctr.DropMalformed.Inc()
		return
	}
	if n.objFromWire(id) == nil {
		return
	}
	d := n.dirEntryOf(id)
	d.mu.Lock()
	delete(d.copyset, req.From)
	d.mu.Unlock()
}
