package protocol

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"munin/internal/bufpool"
	"munin/internal/failpoint"
	"munin/internal/lockrank"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/transport"
	"munin/internal/vkernel"

	"munin/internal/duq"
)

// Read copies object bytes [off, off+len(buf)) into buf, running the
// object's coherence protocol (its policy row's read) if the local copy
// is not valid. q is the calling thread's delayed update queue; reads
// never flush (the thread's own buffered writes already live in the
// local copy), so q only carries the thread's counter cell.
func (n *Node) Read(q *duq.Queue, id memory.ObjectID, off int, buf []byte) {
	n.ReadObj(q, n.mustObj(id), off, buf)
}

// ReadObj is Read on an object Object resolved.
func (n *Node) ReadObj(q *duq.Queue, o *Obj, off int, buf []byte) {
	n.awaitRecovered()
	checkRange(o, off, len(buf))
	o.pol.Load().read(n, o, off, buf)
	n.ctr.Reads.AddCell(&q.Reads, 1)
}

// CountRead counts a read the caller served itself from an object's
// View.
func (n *Node) CountRead(q *duq.Queue) { n.ctr.Reads.AddCell(&q.Reads, 1) }

// Write stores data at [off, off+len(data)), running the object's
// coherence protocol (its policy row's write). Loose protocols
// (write-many, result, producer-consumer) buffer the update in q until
// the thread's next synchronization point.
func (n *Node) Write(q *duq.Queue, id memory.ObjectID, off int, data []byte) {
	n.WriteObj(q, n.mustObj(id), off, data)
}

// WriteObj is Write on an object Object resolved.
func (n *Node) WriteObj(q *duq.Queue, o *Obj, off int, data []byte) {
	n.awaitRecovered()
	checkRange(o, off, len(data))
	o.pol.Load().write(n, q, o, off, data)
	n.ctr.Writes.AddCell(&q.Writes, 1)
}

// FlushQueue propagates every delayed update in q. The runtime calls
// this before every synchronization operation and at thread exit ("the
// delayed update queue must be flushed whenever a thread
// synchronizes").
//
// The flush is planned as a whole (duq.DrainInto) and batched: write-many
// and result updates are grouped by home node, producer-consumer pushes
// by consumer set, and one message per destination carries that
// destination's entries in first-modification order. Batches to
// distinct destinations go out concurrently; the flush returns only
// after every destination acknowledged, so a synchronization operation
// that follows still guarantees visibility everywhere.
//
// Ordering (§3.2): within one destination group the requirement that a
// remote thread never observe a later update while missing an earlier
// one holds outright — a home merges its batch in first-modification
// order, each copy holder receives all of that home's updates in one
// in-order message, and per-object sequence stamping orders updates
// across flushes. Across destination groups (objects homed at
// different nodes, or pushed to different consumer sets) the batches
// are deliberately pipelined, so mid-flush an unsynchronized third
// node may transiently observe a later-written object's update before
// an earlier-written one homed elsewhere; any thread that
// synchronizes sees everything, because the flush completed before
// the lock or barrier was released. There is no stricter mode: a
// program that reads unsynchronized across homes gets no order between
// them (docs/ARCHITECTURE.md, "Life of a flush").
func (n *Node) FlushQueue(q *duq.Queue) {
	lockrank.Blocking()
	if err := n.TryFlushQueue(q); err != nil {
		panic(fmt.Sprintf("munin: flush: %v", err))
	}
}

// TryFlushQueue is FlushQueue with an error return instead of a panic.
// In-process runs never see an error outside shutdown, but on the
// multi-process mesh a destination can become unreachable, and the
// error distinguishes how (detect with errors.As):
//
//   - a peer-down error (transport.PeerDownOf) — the peer's wire DIED (crash, dial
//     failure, broken stream). Updates aimed at it may be lost; with a
//     reconnect policy the pair can come back on a fresh epoch, but
//     nothing from this flush is replayed.
//   - a peer-gone error (transport.PeerGoneOf) — the peer DEPARTED cleanly (goodbye
//     handshake). Everything it sent before leaving was delivered;
//     this flush simply has nowhere to go.
//
// Both surface promptly, because vkernel fails the pending
// acknowledgment the moment the transport latches the peer.
//
// Every destination is attempted even when one fails, so healthy homes
// still receive their batches. The drained entries are then committed
// regardless: their dirty sets were taken by the attempt, and a latched
// peer cannot receive them later anyway (even a reconnect replays
// nothing), so leaving them queued would only make a retry succeed
// vacuously. The returned error is the loss report.
func (n *Node) TryFlushQueue(q *duq.Queue) error {
	lockrank.Blocking()
	// This is the node's synchronization point: every acquire, release,
	// barrier, atomic and thread exit flushes before proceeding. Bumping
	// the epoch here — even when the queue is empty — lapses every
	// lease-engine lease on the node, so the next read of a leased
	// object revalidates against its home (lease.go).
	n.syncEpoch.Add(1)
	fs := getFlushScratch()
	defer putFlushScratch(fs)
	fs.ids = q.DrainInto(fs.ids[:0])
	if len(fs.ids) == 0 {
		return nil
	}
	n.lockDrained(fs)
	err := n.flushBatched(fs, -1)
	n.unlockDrained(fs)
	q.Commit(fs.ids)
	return err
}

// lockDrained takes the flush lock of every drained object, in
// object-ID order, before anything is captured; unlockDrained gives
// them back once the flush is acknowledged. One rule for all three
// delayed-update annotations: this node's updates to an object reach
// its home, or its consumers, in the order they were captured — an
// older capture can never land on top of a newer one — and a thread
// whose bytes were taken by a co-located thread's flush waits here
// until that flush is acknowledged, so it cannot pass its sync point
// before its writes are visible. Concurrent flushes lock in the same
// order, so overlapping dirty sets cannot deadlock.
func (n *Node) lockDrained(fs *flushScratch) {
	for _, id := range fs.ids {
		fs.objs = append(fs.objs, n.mustObj(id))
	}
	slices.SortFunc(fs.objs, func(a, b *Obj) int { return cmp.Compare(a.meta.ID, b.meta.ID) })
	for _, o := range fs.objs {
		o.pushMu.LockOrdered(uint64(o.meta.ID))
	}
}

func (n *Node) unlockDrained(fs *flushScratch) {
	for _, o := range fs.objs {
		o.pushMu.Unlock()
	}
}

// flushScratch is the reusable state of one batched flush: the drained
// object IDs, the flush-lock list, the span and span-data arenas every
// object's dirty set is read off into, the per-destination grouping, and
// the await list. Entries and spans alias the arenas, which outlive the
// whole flush (the scratch is returned to the pool only after every
// destination settled), so a steady-state flush locks, plans and captures
// without allocating. Concurrent flushing threads each take their own
// scratch.
type flushScratch struct {
	ids      []memory.ObjectID
	objs     []*Obj        // the drained objects in ID order: the flush locks held
	spans    []memory.Span // span arena; per-object updates subslice it
	buf      []byte        // span-data arena behind the spans
	entries  []dstEntry    // planned emissions in first-modification order
	dstOrder []msg.NodeID  // distinct homes in first-appearance order
	grouped  []batchEntry  // entries regrouped contiguously per home
	groups   []dstGroup    // remote homes' [lo,hi) ranges over grouped
	carried  []batchEntry  // the entries a barrier arrival carries (FlushAtBarrier)
	pushes   []pushEntry   // the producer-consumer pushes it carries
	members  []msg.NodeID  // member-set arena behind the pushes' destination sets
	awaits   []flushAwait
}

// dstEntry is one planned diff emission: the home it goes to and the
// (object, spans) batch entry.
type dstEntry struct {
	dst msg.NodeID
	e   batchEntry
}

// dstGroup is one remote destination's contiguous range of
// flushScratch.grouped.
type dstGroup struct {
	dst    msg.NodeID
	lo, hi int
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

func getFlushScratch() *flushScratch { return flushScratchPool.Get().(*flushScratch) }

func putFlushScratch(fs *flushScratch) {
	// Truncate the arenas (capacity is the point of pooling) but clear
	// the awaits: they hold Pendings and closures that would otherwise
	// outlive their flush inside the pool.
	clear(fs.awaits)
	clear(fs.pushes)
	fs.ids, fs.objs, fs.spans, fs.buf = fs.ids[:0], fs.objs[:0], fs.spans[:0], fs.buf[:0]
	fs.entries, fs.dstOrder = fs.entries[:0], fs.dstOrder[:0]
	fs.grouped, fs.groups, fs.awaits = fs.grouped[:0], fs.groups[:0], fs.awaits[:0]
	fs.carried, fs.pushes, fs.members = nil, fs.pushes[:0], fs.members[:0]
	flushScratchPool.Put(fs)
}

// pcGroup collects the producer-consumer objects of one flush that
// share a destination set, so their pushes travel as one multicast.
type pcGroup struct {
	members []msg.NodeID // sorted
	objs    []*Obj       // in first-modification order
}

// pushEntry is one stamped producer-consumer push and its destination
// set: the consumers and the object's home, sorted.
type pushEntry struct {
	applyEntry
	members []msg.NodeID
}

// flushBatched plans and executes one batched, pipelined flush over
// the drained dirty set (in first-modification order), whose flush
// locks the caller holds (lockDrained). A barrier arrival to node carry
// (carry < 0: none) carries what is not sent: the write-many and result
// entries homed at carry, left in fs.carried, and every
// producer-consumer push, stamped and left in fs.pushes; when carry is
// this node they wait for the barrier's merge instead of merging in
// place. A returned error means some destination could not be reached
// or did not acknowledge — notably a peer-down error
// (transport.PeerDownOf) from a dead peer.
func (n *Node) flushBatched(fs *flushScratch, carry msg.NodeID) error {
	// Producer-consumer planning state is built lazily: the steady-state
	// write-many/result flush (the allocation-gated hot path) never
	// touches it.
	var pcGroups []pcGroup
	for _, id := range fs.ids {
		o := n.mustObj(id)
		switch o.pol.Load().flush {
		case flushHome:
			o.mu.Lock()
			spans := o.takeDirty(fs)
			o.mu.Unlock()
			if len(spans) == 0 {
				continue // a co-located thread's flush took the set, or nothing changed
			}
			n.ctr.DiffSent.Inc()
			n.ctr.DiffBytes.Add(int64(memory.SpanBytes(spans)))
			home := n.homeOf(&o.meta)
			known := false
			for _, d := range fs.dstOrder {
				if d == home {
					known = true
					break
				}
			}
			if !known {
				fs.dstOrder = append(fs.dstOrder, home)
			}
			fs.entries = append(fs.entries, dstEntry{dst: home, e: batchEntry{id: id, spans: spans}})
		case flushConsumers:
			n.becomeProducer(o)
			if carry >= 0 {
				// A push with no member has nowhere to go.
				if p, ok := n.stampPush(fs, o); ok && len(p.members) > 0 {
					fs.pushes = append(fs.pushes, p)
				}
				continue
			}
			o.mu.Lock()
			members := n.pushMembers(fs, o)
			o.mu.Unlock()
			g := 0
			for g < len(pcGroups) && !slices.Equal(pcGroups[g].members, members) {
				g++
			}
			if g == len(pcGroups) {
				pcGroups = append(pcGroups, pcGroup{members: members})
			}
			pcGroups[g].objs = append(pcGroups[g].objs, o)
		}
	}

	// Regroup each destination's entries contiguously in the scratch so
	// one home's batch is one subslice, preserving first-modification
	// order within the destination.
	var local []batchEntry // write-many/result homed on this node
	for _, dst := range fs.dstOrder {
		lo := len(fs.grouped)
		for _, de := range fs.entries {
			if de.dst == dst {
				fs.grouped = append(fs.grouped, de.e)
			}
		}
		switch dst {
		case carry:
			fs.carried = fs.grouped[lo:len(fs.grouped):len(fs.grouped)]
		case n.id:
			local = fs.grouped[lo:len(fs.grouped):len(fs.grouped)]
		default:
			fs.groups = append(fs.groups, dstGroup{dst: dst, lo: lo, hi: len(fs.grouped)})
		}
	}

	work := len(fs.groups) + len(pcGroups)
	if len(local) > 0 {
		work++
	}
	if work == 0 {
		return nil
	}
	// The flush is fully planned (write-many and result updates captured,
	// batches grouped) but nothing has been handed to the wire yet: a
	// member dying here loses the whole drained dirty set.
	failpoint.Hit(failpoint.FlushPlanned)
	if work > 1 {
		n.ctr.FlushPipelined.Inc()
	}

	// Start phase: every destination's batch is enqueued on the
	// transport's coalescing writer — nothing blocks on the wire, so
	// distinct destinations coalesce in the per-peer writers instead of
	// fanning out over ad-hoc goroutines. A destination that fails to
	// start (its peer's wire is already latched down) is recorded but
	// does NOT abort the others: the planning loop above took every
	// object's dirty set, so the only way to not lose the healthy
	// destinations' updates is to keep going and report the failure at
	// the end.
	var firstErr error
	noteErr := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, g := range fs.groups {
		a, err := n.startDiffBatch(g.dst, fs.grouped[g.lo:g.hi:g.hi])
		if err != nil {
			noteErr(err)
			continue
		}
		fs.awaits = append(fs.awaits, a)
	}
	for i := range pcGroups {
		as, err := n.startPushBatch(fs, &pcGroups[i])
		fs.awaits = append(fs.awaits, as...)
		if err != nil && !n.relayBenign(err) {
			noteErr(err)
		}
	}

	// Fence: everything started above has been handed to the wire in
	// coalesced frames. The local home-side merge then overlaps with
	// the remote round trips, and the flush completes only when every
	// destination has acknowledged — the §3.2 visibility rule intact.
	if err := n.k.Flush(); err != nil && !isShutdown(err) {
		noteErr(err)
	}
	// Batches are on the wire but not yet acknowledged: a member dying
	// here leaves homes holding whatever frames made it out intact.
	failpoint.Hit(failpoint.FlushSent)
	if len(local) > 0 {
		// Local flush at the home: the home copy already holds the
		// bytes; just run the home-side merge + redistribution.
		ds := getDecodeScratch()
		_, err := n.homeMergeBatch(ds, local, n.id)
		putDecodeScratch(ds)
		noteErr(err)
	}
	settle := func(a flushAwait) error {
		replies, err := a.p.Wait()
		if err != nil {
			if a.benign && n.relayBenign(err) {
				return nil
			}
			return err
		}
		if a.finish != nil {
			return a.finish(replies)
		}
		return nil
	}
	for _, a := range fs.awaits {
		noteErr(settle(a))
	}
	return firstErr
}

// flushAwait is one started (enqueued, unacknowledged) flush emission:
// the Pending collecting its acks, the completion that settles sequence
// numbers from the replies, and whether shutdown errors are benign for
// it (eager pushes, whose consumers may already be gone).
type flushAwait struct {
	p      *vkernel.Pending
	finish func([]*msg.Msg) error
	benign bool
}

// takeDirty reads o's dirty set off into the flush scratch arenas and
// empties it, copying the bytes once from o.data, and returns the
// object's subslice of the span arena — empty if a co-located thread's
// flush already took the set or no buffered write changed a byte. The
// subslice is three-index so later arena growth cannot scribble over it.
// Caller holds o.mu.
func (o *Obj) takeDirty(fs *flushScratch) []memory.Span {
	lo := len(fs.spans)
	fs.spans, fs.buf = o.dirty.Take(fs.spans, fs.buf, o.data)
	return fs.spans[lo:len(fs.spans):len(fs.spans)]
}

// encodeDiffBatch builds the complete kindDiffBatch wire message for one
// home's entries — header space reserved, payload behind it — in a
// pooled buffer sized exactly, so the encode is one pass with no
// intermediate Marshal copy.
func encodeDiffBatch(entries []batchEntry) *bufpool.Buffer {
	wb, b := vkernel.NewWire(diffEntriesSize(entries))
	putDiffEntries(&b, entries)
	wb.B = b.Bytes()
	return wb
}

// diffEntriesSize is the encoded size of a kindDiffBatch payload, which
// is also the carried part of a barrier arrival: a count word and one
// length-prefixed (object, spans) entry per object.
func diffEntriesSize(entries []batchEntry) int {
	size := 4
	for _, e := range entries {
		esz := 4 + memory.EncodedSpansSize(e.spans)
		size += msg.UvarintLen(uint64(esz)) + esz
	}
	return size
}

// putDiffEntries writes the payload diffEntriesSize sized.
func putDiffEntries(b *msg.Builder, entries []batchEntry) {
	b.U32(uint32(len(entries)))
	for _, e := range entries {
		// The Entry-style length prefix, written directly from the
		// precomputed size instead of through a temporary Builder.
		b.Uvarint(uint64(4 + memory.EncodedSpansSize(e.spans)))
		b.U32(uint32(e.id))
		memory.EncodeSpans(b, e.spans)
	}
}

// startDiffBatch enqueues one home's planned entries on the coalescing
// writer and returns the await that settles the assigned sequence
// numbers from the reply. K entries cost one kindDiffBatch round trip;
// the wire message is built in a pooled buffer owned by the transport
// writer from here on.
func (n *Node) startDiffBatch(dst msg.NodeID, entries []batchEntry) (flushAwait, error) {
	wb := encodeDiffBatch(entries)
	n.countBatch(len(entries), len(wb.B)-msg.HeaderSize)
	p, err := n.k.CallStartOwned(dst, kindDiffBatch, wb)
	if err != nil {
		return flushAwait{}, fmt.Errorf("diff batch to node %d: %w", dst, err)
	}
	return flushAwait{p: p, finish: func(replies []*msg.Msg) error {
		r := msg.NewReader(replies[0].Payload)
		if cnt := int(r.U32()); cnt != len(entries) || r.Err() != nil || r.Remaining() < 8*cnt {
			return fmt.Errorf("diff batch to node %d: reply has %d seqs, want %d", dst, cnt, len(entries))
		}
		for _, e := range entries {
			n.settleOwnDiff(e.id, r.U64())
		}
		// The merge happened; a failed relay to a third node follows
		// the sequence numbers.
		if r.Remaining() > 0 {
			return fmt.Errorf("diff batch to node %d: %s", dst, r.Str())
		}
		return nil
	}}, nil
}

// settleOwnDiff advances an object's update sequence past this node's
// own diff, whose home relay excluded us (see advanceOwn).
func (n *Node) settleOwnDiff(id memory.ObjectID, seq uint64) {
	o := n.mustObj(id)
	o.mu.Lock()
	o.advanceOwn(seq)
	o.mu.Unlock()
}

// pushMembers snapshots the destination set of one producer-consumer
// push — the cached consumer set plus the home, unless this node is the
// home — sorted and without repeats, into the scratch's member arena.
// The caller holds o.mu.
func (n *Node) pushMembers(fs *flushScratch, o *Obj) []msg.NodeID {
	lo := len(fs.members)
	fs.members = append(fs.members, o.consumers...)
	if home := n.homeOf(&o.meta); home != n.id {
		fs.members = append(fs.members, home)
	}
	slices.Sort(fs.members[lo:])
	fs.members = fs.members[:lo+len(slices.Compact(fs.members[lo:]))]
	return fs.members[lo:len(fs.members):len(fs.members)]
}

// stampPush takes o's dirty set as its producer's next update, or
// reports false when there is none. The sequence number and the
// destination set are taken under one o.mu hold: the (members, seq)
// pairing the consumer registration handshake relies on (see
// handleRegCons).
func (n *Node) stampPush(fs *flushScratch, o *Obj) (pushEntry, bool) {
	o.mu.Lock()
	spans := o.takeDirty(fs)
	if len(spans) == 0 {
		o.mu.Unlock()
		return pushEntry{}, false
	}
	o.prodSeq++
	seq := o.prodSeq
	o.applySeq = seq // our copy already reflects this update
	members := n.pushMembers(fs, o)
	o.mu.Unlock()
	n.ctr.DiffSent.Inc()
	n.ctr.DiffBytes.Add(int64(memory.SpanBytes(spans)))
	n.ctr.EagerPush.Inc()
	return pushEntry{applyEntry: applyEntry{id: o.meta.ID, seq: seq, spans: spans}, members: members}, true
}

// startPushBatch stamps one producer-consumer group's updates and
// enqueues them — the shared-destination batch plus any solo pushes —
// on the coalescing writer. The caller (flushBatched) holds every group
// object's flush lock until the awaits returned here are acknowledged:
// consumers see each object's sequence numbers in order, and an
// acknowledged push implies all earlier pushes landed.
func (n *Node) startPushBatch(fs *flushScratch, g *pcGroup) ([]flushAwait, error) {
	batch := make([]applyEntry, 0, len(g.objs))
	var solos []pushEntry
	for _, o := range g.objs { // first-modification order
		p, ok := n.stampPush(fs, o)
		if !ok {
			continue
		}
		// The plan-time set was only a grouping hint; if a registration
		// changed it since, the object leaves the batch and is pushed
		// alone to its fresh set.
		if slices.Equal(p.members, g.members) {
			batch = append(batch, p.applyEntry)
		} else {
			solos = append(solos, p)
		}
	}

	// Acknowledged eager pushes: consumers never wait for data, the
	// producer pays the wait at its own synchronization point (the
	// awaits returned to flushBatched).
	var awaits []flushAwait
	push := func(members []msg.NodeID, entries []applyEntry) error {
		payload := encodeApplyBatch(entries)
		n.countBatch(len(entries), len(payload))
		p, err := n.k.MulticastCallStart(members, kindApplyBatch, payload)
		if err != nil {
			return fmt.Errorf("producer push: %w", err)
		}
		awaits = append(awaits, flushAwait{p: p, benign: true})
		return nil
	}
	if len(batch) > 0 {
		if err := push(g.members, batch); err != nil {
			return awaits, err
		}
	}
	for _, s := range solos {
		if err := push(s.members, []applyEntry{s.applyEntry}); err != nil {
			return awaits, err
		}
	}
	return awaits, nil
}

// ---------------------------------------------------------------------
// Replication fault path (write-once, write-many, conventional reads,
// general-rw reads, replicated read-mostly).

// testHookFetched, when a test sets it, runs in ensureReadable after a
// fetch's reply has arrived and before the copy is installed.
var testHookFetched func()

// ensureReadable guarantees o has a valid local copy, fetching one
// through the home if necessary. The invalidation generation counter
// detects an invalidation racing the fetch reply — under the ownership
// protocols the reply comes from the owner, on a connection that shares
// no order with the home's invalidation — in which case the fetch
// retries. It waits out an ownership request of this node's: the home
// must see one fault per object from a node at a time (handleWriteOwn).
func (n *Node) ensureReadable(o *Obj) {
	o.mu.Lock()
	for {
		if o.state != Invalid {
			o.mu.Unlock()
			return
		}
		if o.fetching || o.owning {
			o.cond.Wait()
			continue
		}
		o.fetching = true
		gen := o.genInv
		o.mu.Unlock()

		n.ctr.FaultRead.Inc()
		pol := o.pol.Load()
		if pol.remote {
			n.ctr.RMRemoteReads.Inc()
		}
		reply, err := n.k.Call(n.homeOf(&o.meta), kindRead,
			msg.NewBuilder(4).U32(uint32(o.meta.ID)).Bytes())
		if err != nil {
			panic(fmt.Sprintf("munin: read fault %q: %v", o.meta.Name, err))
		}
		if len(reply.Payload) < 8 {
			// A nack (nackRetry, nackOwnerDown): no object came back.
			r := msg.NewReader(reply.Payload)
			if r.U8() == nackOwnerDown {
				panic(fmt.Sprintf("munin: read fault %q: %v", o.meta.Name,
					transport.PeerDownError(msg.NodeID(r.U32()), errOwnerLost)))
			}
			o.mu.Lock()
			o.fetching = false
			o.cond.Broadcast()
			continue
		}
		if testHookFetched != nil {
			testHookFetched()
		}
		r := msg.NewReader(reply.Payload)
		data := r.BytesN()
		seq := r.U64()

		o.mu.Lock()
		o.fetching = false
		if o.genInv != gen {
			// Invalidated while the reply was in flight: retry.
			n.ctr.FetchRetry.Inc()
			o.cond.Broadcast()
			continue
		}
		if pol.frozen {
			// The replica is born frozen, in storage of its own: a
			// reader that raced an Evict may still be copying out of the
			// previous snapshot, which nothing ever writes again.
			o.snap.publish(string(data))
		} else {
			copy(o.data, data)
		}
		o.state = Shared
		o.alignSeq(seq)
		o.cond.Broadcast()
		o.mu.Unlock()
		return
	}
}

// errOwnerLost is the cause of a fault the home refused with
// nackOwnerDown.
var errOwnerLost = errors.New("the object's home lost its wire to the owner")

// advanceOwn advances the update sequence past this node's own diff,
// whose relay excluded us. Every relay with a smaller sequence number
// was acknowledged by this node before the home replied to our diff, so
// it is already applied; parked entries at or below seq (if any slipped
// in) are applied in ascending order, then contiguous successors drain.
// Caller holds o.mu.
func (o *Obj) advanceOwn(seq uint64) {
	if seq <= o.applySeq {
		return
	}
	for s := o.applySeq + 1; s <= seq; s++ {
		if spans, ok := o.pendApply[s]; ok {
			memory.ApplySpans(o.data, spans)
			delete(o.pendApply, s)
		}
	}
	o.applySeq = seq
	for {
		spans, ok := o.pendApply[o.applySeq+1]
		if !ok {
			break
		}
		delete(o.pendApply, o.applySeq+1)
		memory.ApplySpans(o.data, spans)
		o.applySeq++
	}
}

// alignSeq fast-forwards the update sequence to the fetched snapshot and
// applies any parked later updates. Caller holds o.mu.
func (o *Obj) alignSeq(seq uint64) {
	if seq < o.applySeq {
		return // fetched snapshot older than what we already applied (cannot happen via home, defensive)
	}
	o.applySeq = seq
	for {
		spans, ok := o.pendApply[o.applySeq+1]
		if !ok {
			break
		}
		delete(o.pendApply, o.applySeq+1)
		memory.ApplySpans(o.data, spans)
		o.applySeq++
	}
	// Drop parked updates at or below the snapshot.
	for s := range o.pendApply {
		if s <= o.applySeq {
			delete(o.pendApply, s)
		}
	}
}

// ---------------------------------------------------------------------
// Write-once (§3.3.1): replication on demand; writes only during
// initialization at the home while no other copies exist.

// testHookWriteOnceChecked, when a test sets it, runs between
// writeOnceWrite's sole-copy check and its store.
var testHookWriteOnceChecked func()

func (n *Node) writeOnceWrite(_ *duq.Queue, o *Obj, off int, data []byte) {
	home := n.homeOf(&o.meta)
	if home != n.id {
		panic(fmt.Sprintf("munin: write-once object %q written from node %d (home %d) after initialization",
			o.meta.Name, n.id, home))
	}
	// The sole-copy check and the write share one hold of d.mu, which
	// handleRead takes before it serves a replica: a replica is served
	// either before the check (and the write panics) or after the write
	// (and carries it), never in between.
	d := n.dirEntryOf(o.meta.ID)
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.copyset) != 1 || !d.copyset[n.id] {
		panic(fmt.Sprintf("munin: write-once object %q written after replication", o.meta.Name))
	}
	if testHookWriteOnceChecked != nil {
		testHookWriteOnceChecked()
	}
	o.mu.Lock()
	if s := o.snap.view(); s != "" {
		// Every replica served so far has been evicted again, so the
		// object is back in initialisation: thaw it into a private copy.
		// Readers still inside the old snapshot keep the old bytes.
		o.data = []byte(s)
		n.retract(o)
	}
	copy(o.data[off:], data)
	o.mu.Unlock()
}

// writeOnceRead serves a write-once read. A hit copies out of the frozen
// snapshot and takes no lock at all. A read that finds nothing published
// takes o.mu: the replica is Invalid (never fetched, or evicted), or this
// is the home and the object is still being initialised. An Evict can
// undo the fetch before this thread is back under o.mu, hence the loop.
func (n *Node) writeOnceRead(o *Obj, off int, buf []byte) {
	if s := o.snap.view(); s != "" {
		copy(buf, s[off:])
		return
	}
	o.mu.Lock()
	for o.state == Invalid {
		o.mu.Unlock()
		n.ensureReadable(o)
		o.mu.Lock()
	}
	if s := o.snap.view(); s != "" {
		copy(buf, s[off:])
	} else {
		copy(buf, o.data[off:])
	}
	o.mu.Unlock()
}

// Evict drops this node's replica of a read-only (write-once or
// replicated read-mostly) object — the paper's "pageout" for large
// read-only objects. The next access refetches. A write-once replica's
// bytes go with it: the node keeps no reference to them, and they are
// freed once the last reader still copying out of them returns.
//
// It waits for a fault of this node's in flight: an ownership request
// has vouched to the home that the copy is valid (ownershipWrite), and
// retiring the copy — and, through kindEvict, its copy-set entry — behind
// that request's back would leave a granted owner outside the copy set.
func (n *Node) Evict(id memory.ObjectID) {
	o := n.mustObj(id)
	home := n.homeOf(&o.meta)
	if home == n.id {
		return // the home copy is authoritative and never evicted
	}
	o.mu.Lock()
	for o.fetching || o.owning {
		o.cond.Wait()
	}
	if o.state == Invalid || o.owns {
		// Nothing to drop, or this node owns the object: like the home's,
		// the owner's copy is the authoritative one.
		o.mu.Unlock()
		return
	}
	o.state = Invalid
	o.genInv++
	n.retract(o)
	o.mu.Unlock()
	n.ctr.Evict.Inc()
	n.k.Send(home, kindEvict, msg.NewBuilder(4).U32(uint32(id)).Bytes())
}

// ---------------------------------------------------------------------
// Write-many and result (§3.3.2, §3.2): buffered writes recorded in the
// object's dirty set, propagated as spans when the thread synchronizes.

func (n *Node) bufferedWrite(q *duq.Queue, o *Obj, off int, data []byte) {
	o.mu.Lock()
	if o.state == Invalid {
		o.mu.Unlock()
		n.ensureReadable(o)
		o.mu.Lock()
	}
	n.storeBuffered(q, o, off, data)
	o.mu.Unlock()
	n.ctr.WriteBuffered.AddCell(&q.Buffered, 1)
}

// storeBuffered is the one place a delayed-update write lands: it queues
// the object for the thread's next flush, stores the bytes in the local
// copy and records them in the object's dirty set. A store that changes
// nothing records nothing (memory.Dirty.Write), so it stays unsent.
// Caller holds o.mu and has made the local copy valid.
func (n *Node) storeBuffered(q *duq.Queue, o *Obj, off int, data []byte) {
	q.MarkDirty(o.meta.ID)
	if o.dirty.Write(o.data, off, data) {
		n.ctr.Twin.Inc() // clean -> dirty; benchmark/ reads it under this name
	}
}

// ---------------------------------------------------------------------
// Producer-consumer (§3.3.4): eager object movement. The producer
// multicasts updates directly to the registered consumer set (plus the
// home) as soon as its thread synchronizes — in the best case the new
// values arrive before consumers need them and they never wait.

func (n *Node) producerWrite(q *duq.Queue, o *Obj, off int, data []byte) {
	o.mu.Lock()
	if !o.isProducer && o.state == Invalid {
		// First touch by the producing node: fetch current contents
		// (producers usually wrote it first, via Alloc at home, but a
		// non-home producer needs a copy to write into).
		o.mu.Unlock()
		n.becomeProducer(o)
		o.mu.Lock()
	}
	n.storeBuffered(q, o, off, data)
	o.mu.Unlock()
	n.ctr.WriteBuffered.AddCell(&q.Buffered, 1)
}

// becomeProducer registers this node as the object's producer with the
// home and caches the current consumer set. The home registers itself
// in place: its copy is the one a remote producer would be sent.
func (n *Node) becomeProducer(o *Obj) {
	o.mu.Lock()
	if o.isProducer {
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	home := n.homeOf(&o.meta)
	if home == n.id {
		consumers, producer, _, _, ok := n.registerPC(o, n.id, true)
		if !ok {
			panic(twoProducers(o, producer, n.id))
		}
		o.mu.Lock()
		o.isProducer = true
		o.prodSeq = o.applySeq
		o.adoptConsumers(consumers)
		o.mu.Unlock()
		return
	}
	reply, err := n.k.Call(home, kindRegCons,
		msg.NewBuilder(5).U32(uint32(o.meta.ID)).Bool(true).Bytes())
	if err != nil {
		panic(fmt.Sprintf("munin: register producer %q: %v", o.meta.Name, err))
	}
	r := msg.NewReader(reply.Payload)
	if len(reply.Payload) == 4 { // refused: another node produces it
		panic(twoProducers(o, msg.NodeID(r.U32()), n.id))
	}
	data := r.BytesN()
	seq := r.U64()
	nc := int(r.U32())
	consumers := make([]msg.NodeID, 0, nc)
	for i := 0; i < nc; i++ {
		consumers = append(consumers, msg.NodeID(r.U32()))
	}
	o.mu.Lock()
	if o.state == Invalid {
		copy(o.data, data)
		o.state = Shared
		o.alignSeq(seq)
	}
	o.isProducer = true
	o.prodSeq = seq
	o.adoptConsumers(consumers)
	o.mu.Unlock()
}

// adoptConsumers caches the consumer set a producer registration
// returned, unless a consumer-set update has already installed one: the
// home sends that update only once this node is the recorded producer,
// so it was taken after the registration's set and is the newer. Called
// with o.mu held.
func (o *Obj) adoptConsumers(consumers []msg.NodeID) {
	if o.consumers == nil {
		o.consumers = consumers
	}
}

// twoProducers is the panic of a thread whose node tried to produce an
// object another node already produces.
func twoProducers(o *Obj, producer, from msg.NodeID) string {
	return fmt.Sprintf("munin: producer-consumer object %q has two producing nodes (%d and %d)",
		o.meta.Name, producer, from)
}

// ensureConsumer registers this node as a consumer on first read and
// installs the current contents; afterwards the producer's eager pushes
// keep the copy fresh and reads are purely local.
func (n *Node) ensureConsumer(o *Obj) {
	o.mu.Lock()
	if o.registered || o.isProducer || o.state != Invalid {
		o.mu.Unlock()
		return
	}
	if o.fetching {
		for o.fetching {
			o.cond.Wait()
		}
		o.mu.Unlock()
		return
	}
	o.fetching = true
	o.mu.Unlock()

	n.ctr.FaultRead.Inc()
	n.ctr.ConsumerStall.Inc() // a consumer had to wait for data
	reply, err := n.k.Call(n.homeOf(&o.meta), kindRegCons,
		msg.NewBuilder(5).U32(uint32(o.meta.ID)).Bool(false).Bytes())
	if err != nil {
		panic(fmt.Sprintf("munin: register consumer %q: %v", o.meta.Name, err))
	}
	r := msg.NewReader(reply.Payload)
	data := r.BytesN()
	seq := r.U64()

	o.mu.Lock()
	o.fetching = false
	copy(o.data, data)
	o.state = Shared
	o.registered = true
	o.alignSeq(seq)
	o.cond.Broadcast()
	o.mu.Unlock()
}

// ---------------------------------------------------------------------
// Remote load/store: read-mostly (§3.3.5) and result objects.

// remoteRead serves a read by remote load from the home; the home reads
// its own copy. A reply that says the home has replicated a read-mostly
// object (§3.4.1, handleRemRead) swaps this node to replicatedRow, so
// its next read faults a copy in. Until then the old row is as good:
// the home serves every remote load and store.
func (n *Node) remoteRead(o *Obj, off int, buf []byte) {
	home := n.homeOf(&o.meta)
	if home == n.id {
		o.mu.Lock()
		copy(buf, o.data[off:])
		o.mu.Unlock()
		return
	}
	pol := o.pol.Load()
	n.ctr.RemoteLoad.Inc()
	if pol.remote {
		n.ctr.RMRemoteReads.Inc()
	}
	reply, err := n.k.Call(home, kindRemRead,
		msg.NewBuilder(12).U32(uint32(o.meta.ID)).Int(off).Int(len(buf)).Bytes())
	if err != nil {
		panic(fmt.Sprintf("munin: remote load %q: %v", o.meta.Name, err))
	}
	r := msg.NewReader(reply.Payload)
	copy(buf, r.BytesN())
	if r.Remaining() > 0 && pol.remote {
		o.pol.Store(&replicatedRow)
	}
}

// readMostlyWrite stores through the home, which redistributes the
// bytes to every copy but the writer's once the object is replicated
// (homeRemoteStore), so the writer installs them in its own copy and
// advances its sequence from the reply. A copy being fetched parks them
// instead: the home may have served the fetch first, and the install
// keeps or drops them by the fetched sequence (alignSeq). Any later
// fetch is served after the store.
func (n *Node) readMostlyWrite(_ *duq.Queue, o *Obj, off int, data []byte) {
	var seq uint64
	var err error
	if n.homeOf(&o.meta) == n.id {
		_, err = n.homeRemoteStore(o, off, data, n.id)
	} else {
		reply, cerr := n.k.Call(n.homeOf(&o.meta), kindRemWrite, n.remoteStorePayload(o, off, data))
		seq, err = remoteStoreReply(o, reply, cerr)
		if seq > 0 {
			o.mu.Lock()
			switch {
			case o.state != Invalid:
				copy(o.data[off:], data)
				o.advanceOwn(seq)
			case o.fetching:
				o.pendApply[seq] = []memory.Span{{Off: off, Data: slices.Clone(data)}}
			}
			o.mu.Unlock()
		}
	}
	if err != nil {
		panic(fmt.Sprintf("munin: remote store %q: %v", o.meta.Name, err))
	}
}

// remoteStorePayload and remoteStoreReply are the writer's half of a
// remote store, a read-mostly write under either engine; each engine
// sends the payload as its own Call kind (kindRemWrite, kindLeaseWrite).
// The payload carries data for [off, off+len(data)); the reply carries
// the sequence number or version the home gave the store, and the error
// of a redistribution that failed after the home applied it.
func (n *Node) remoteStorePayload(o *Obj, off int, data []byte) []byte {
	n.ctr.RemoteStore.Inc()
	return msg.NewBuilder(16 + len(data)).U32(uint32(o.meta.ID)).Int(off).BytesN(data).Bytes()
}

func remoteStoreReply(o *Obj, reply *msg.Msg, err error) (uint64, error) {
	if err != nil {
		panic(fmt.Sprintf("munin: remote store %q: %v", o.meta.Name, err))
	}
	r := msg.NewReader(reply.Payload)
	seq := r.U64()
	if r.Remaining() > 0 {
		return seq, errors.New(r.Str())
	}
	return seq, nil
}

// ---------------------------------------------------------------------
// Ownership write path (conventional §3.1 and general read-write
// §3.3.6). The requester acquires exclusive ownership through the home,
// which invalidates every other copy first (strict coherence).

// testHookWriteOwnBuilt, when a test sets it, runs after ownershipWrite
// has built its request — the copy vouched for or not — and before the
// request is sent.
var testHookWriteOwnBuilt func(n *Node)

func (n *Node) ownershipWrite(_ *duq.Queue, o *Obj, off int, data []byte) {
	o.mu.Lock()
	for {
		if o.state == Exclusive {
			copy(o.data[off:], data)
			o.mu.Unlock()
			return
		}
		if lost := o.lost; lost != nil {
			o.mu.Unlock()
			panic(fmt.Sprintf("munin: write fault %q: %v", o.meta.Name, lost))
		}
		if o.fetching || o.owning {
			o.cond.Wait()
			continue
		}
		o.owning = true
		// Vouch for the copy under the same hold of o.mu that raises
		// owning: from here to the grant nothing on this node retires or
		// refetches it, so the home can grant without data if it finds
		// this node still in the copy set (handleWriteOwn).
		valid := o.state != Invalid
		o.mu.Unlock()

		n.ctr.FaultWrite.Inc()
		req := msg.NewBuilder(5).U32(uint32(o.meta.ID)).Bool(valid).Bytes()
		if testHookWriteOwnBuilt != nil {
			testHookWriteOwnBuilt(n)
		}
		// The grant comes from the home or from the old owner. It is
		// installed — and this write applied — inline on the dispatcher
		// goroutine, strictly before anything its sender sent later is
		// dispatched; a forward the home sent ahead of it parks until the
		// install (awaitGrant). Either way no other node can be served
		// this object's pre-install state.
		var lost error
		err := n.k.CallInline(n.homeOf(&o.meta), kindWriteOwn, req,
			func(reply *msg.Msg) {
				r := msg.NewReader(reply.Payload)
				how := r.U8()
				o.mu.Lock()
				switch how {
				case nackOwnerDown:
					lost = transport.PeerDownError(msg.NodeID(r.U32()), errOwnerLost)
					o.lost = lost
				default: // a grant (encodeGrant), with the bytes if how is 1
					o.epoch = r.U32()
					if how == 1 {
						copy(o.data, r.BytesN())
					}
					o.state = Exclusive
					o.owns = true
					copy(o.data[off:], data)
				}
				o.owning = false
				o.cond.Broadcast()
				o.mu.Unlock()
			})
		if err != nil {
			panic(fmt.Sprintf("munin: write fault %q: %v", o.meta.Name, err))
		}
		if lost != nil {
			panic(fmt.Sprintf("munin: write fault %q: %v", o.meta.Name, lost))
		}
		return // the inline callback applied the write
	}
}
