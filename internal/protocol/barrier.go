package protocol

import (
	"errors"
	"fmt"
	"slices"

	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/lockrank"
	"munin/internal/memory"
	"munin/internal/msg"
)

// A barrier publishes the updates it makes visible (§3.2: updates need
// to be visible when the barrier exits, not before the arrival). A
// thread that runs alone on its node does not flush its write-many and
// result updates to objects homed at the barrier's home, nor push its
// producer-consumer updates, before it arrives: they ride the arrival
// (FlushAtBarrier). The home checks each carried part as it arrives
// (barrierCheck) and merges them all when the last participant arrives
// (barrierMerge), so nothing is stamped, applied or half-merged while
// the barrier is open. Every such thread is a carrier, whether or not it
// carried anything: its release carries its own sequence numbers and the
// updates, the others' write-many updates and the pushes aimed at its
// node, that it must apply. Every other node that must receive an update
// gets an acknowledged kindApplyBatch from the home before any release
// is sent, and a push aimed at the home itself is applied there.
//
// A carried part is a kindDiffBatch payload (putDiffEntries) followed,
// only when the arrival carries pushes, by a push section: a count word
// and one length-prefixed entry per push — the object (U32), its
// producer sequence number (U64), its member count (U32) and members
// (U32 each, strictly increasing), and its spans. An arrival without
// pushes is therefore exactly as long as before pushes rode it.
//
// A release body is a count word and one length-prefixed entry per
// update, in merge order: the object (U32), its sequence number (U64),
// and whether the entry is an update to apply (Bool), whose spans
// follow, or the participant's own, which carries none.

// FlushAtBarrier is FlushQueue for a thread that runs alone on its node,
// ahead of its arrival at a barrier homed on node home. Updates homed
// elsewhere take the ordinary flush and are acknowledged first; the
// write-many and result updates homed at home, and every
// producer-consumer push, are carried by the arrival. arrive sends it —
// the carried part is written behind the header when home is another
// node, or handed to the merge in place when it is this one, whose home
// copies already hold the updates — and returns the release's body. The
// flush locks of every drained object stay held until the release is
// applied: only a thread alone on its node may do that, for a co-located
// thread flushing the same object would wait behind the whole barrier,
// and a co-located reader could see the object before the release that
// updates it was applied.
//
// The release is applied in merge order — advanceOwn for the thread's
// own entries, applyRefresh for the updates — so an object updated by
// two participants moves through its sequence numbers in order. At the
// barrier's own home there is no release to apply: the merge stamped the
// thread's entries and applied everything else in place. A flush error
// returns before the arrival, as FlushQueue's panic did before
// BarrierWait; an error arrive or the home reports comes back after
// whatever body the release had was applied.
func (n *Node) FlushAtBarrier(q *duq.Queue, home msg.NodeID, arrive func(dlock.Carry) ([]byte, error)) error {
	lockrank.Blocking()
	n.syncEpoch.Add(1) // a synchronization point, as in TryFlushQueue
	fs := getFlushScratch()
	handedOver := false
	defer func() {
		// A local arrival that failed may still be parked with the
		// scratch in hand: leave the scratch to the collector.
		if !handedOver {
			putFlushScratch(fs)
		}
	}()
	fs.ids = q.DrainInto(fs.ids[:0])
	defer q.Commit(fs.ids)
	n.lockDrained(fs)
	defer n.unlockDrained(fs)
	if err := n.flushBatched(fs, home); err != nil {
		return err
	}
	carried, pushes := fs.carried, fs.pushes
	k := len(carried) + len(pushes)
	n.ctr.BarrierCarried.Add(int64(k))
	if home == n.id {
		// An arrival at this node's own barrier is no message.
		var local any
		if k > 0 {
			local = fs
		}
		_, err := arrive(dlock.Carry{Local: local})
		handedOver = err != nil && local != nil
		return err
	}
	size := 0
	if k > 0 {
		size = carriedSize(carried, pushes)
		n.countBatch(k, size)
	}
	body, err := arrive(dlock.Carry{Size: size, Write: func(b *msg.Builder) { putCarried(b, carried, pushes) }})
	if err != nil && body == nil {
		return err
	}
	if len(carried) > 0 || len(body) > 0 {
		if aerr := n.applyRelease(body, carried); aerr != nil {
			return errors.Join(err, fmt.Errorf("barrier release from node %d: %w", home, aerr))
		}
	}
	return err
}

// pushEntrySize is the encoded size of one push entry of a carried part,
// its length prefix excluded.
func pushEntrySize(p *pushEntry) int {
	return 4 + 8 + 4 + 4*len(p.members) + memory.EncodedSpansSize(p.spans)
}

// carriedSize is the encoded size of a carried part (putCarried).
func carriedSize(carried []batchEntry, pushes []pushEntry) int {
	size := diffEntriesSize(carried)
	if len(pushes) > 0 {
		size += 4
		for i := range pushes {
			esz := pushEntrySize(&pushes[i])
			size += msg.UvarintLen(uint64(esz)) + esz
		}
	}
	return size
}

// putCarried writes the carried part carriedSize sized.
func putCarried(b *msg.Builder, carried []batchEntry, pushes []pushEntry) {
	putDiffEntries(b, carried)
	if len(pushes) == 0 {
		return
	}
	b.U32(uint32(len(pushes)))
	for i := range pushes {
		p := &pushes[i]
		b.Uvarint(uint64(pushEntrySize(p)))
		b.U32(uint32(p.id)).U64(p.seq).U32(uint32(len(p.members)))
		for _, m := range p.members {
			b.U32(uint32(m))
		}
		memory.EncodeSpans(b, p.spans)
	}
}

// errBadRelease reports a release body that does not decode, names an
// object or span this node does not have, or does not give back a
// sequence number for each carried entry, in order.
var errBadRelease = errors.New("malformed release")

// applyRelease installs a release body at this participant. The whole
// body is decoded and checked before anything is installed.
func (n *Node) applyRelease(body []byte, carried []batchEntry) error {
	r := msg.NewReader(body)
	count := int(r.U32())
	// At least 14 bytes an entry: a 1-byte length prefix, the object,
	// the sequence number and the flag.
	if r.Err() != nil || count < 0 || count > r.Remaining()/14 {
		return errBadRelease
	}
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	updates := make([]bool, 0, count)
	own := 0
	for i := 0; i < count; i++ {
		e := r.Entry()
		id := memory.ObjectID(e.U32())
		seq := e.U64()
		update := e.Bool()
		lo := len(ds.spans)
		if update {
			// The spans alias the release, which is this thread's.
			ds.spans = memory.DecodeSpansView(ds.spans, e)
		} else {
			// An own entry must be the next carried one.
			if own >= len(carried) || carried[own].id != id {
				return errBadRelease
			}
			own++
		}
		if e.Err() != nil || r.Err() != nil || n.entryFromWire(id, ds.spans[lo:]) == nil {
			return errBadRelease
		}
		ds.applies = append(ds.applies, applyEntry{id: id, seq: seq, spans: ds.spans[lo:len(ds.spans):len(ds.spans)]})
		updates = append(updates, update)
	}
	if own != len(carried) {
		return errBadRelease
	}
	for i, e := range ds.applies {
		o := n.mustObj(e.id)
		if !updates[i] {
			o.mu.Lock()
			o.advanceOwn(e.seq)
			o.mu.Unlock()
			continue
		}
		n.applyRefresh(o, e.seq, e.spans)
	}
	return nil
}

// barrierCheck is the home's check of a carried part as its arrival
// comes in (dlock.AttachBarrier): every entry must decode and name an
// object with spans inside it — a write-many or result object this node
// homes, or a producer-consumer object pushed to members of the cluster
// other than its sender. A part that fails is dropped with its arrival,
// which does not count.
func (n *Node) barrierCheck(a dlock.Arrival) bool {
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	return n.decodeCarried(ds, a.Carried, a.From)
}

// decodeCarried appends a carried part's entries to ds.entries, and its
// sender to ds.froms once per entry, and its pushes to ds.pushes. It
// counts what it rejects. The spans alias p: the home keeps the arrival
// until its release is sent.
func (n *Node) decodeCarried(ds *decodeScratch, p []byte, from msg.NodeID) bool {
	r := msg.NewReader(p)
	count := int(r.U32())
	// At least 9 bytes an entry, as in a kindDiffBatch (handleDiffBatch).
	// A part without entries must carry pushes.
	if r.Err() != nil || count < 0 || count > r.Remaining()/9 || count == 0 && r.Remaining() == 0 {
		n.ctr.DropMalformed.Inc()
		return false
	}
	for i := 0; i < count; i++ {
		e := r.Entry()
		id := memory.ObjectID(e.U32())
		lo := len(ds.spans)
		ds.spans = memory.DecodeSpansView(ds.spans, e)
		if e.Err() != nil || r.Err() != nil {
			n.ctr.DropMalformed.Inc()
			return false
		}
		o := n.entryFromWire(id, ds.spans[lo:])
		if o == nil {
			return false
		}
		if o.pol.Load().flush != flushHome || n.homeOf(&o.meta) != n.id {
			n.ctr.DropMisdirected.Inc()
			return false
		}
		ds.entries = append(ds.entries, batchEntry{id: id, spans: ds.spans[lo:len(ds.spans):len(ds.spans)]})
		ds.froms = append(ds.froms, from)
	}
	if r.Remaining() > 0 && !n.decodePushes(ds, r, from) {
		return false
	}
	if r.Remaining() != 0 {
		n.ctr.DropMalformed.Inc()
		return false
	}
	return true
}

// decodePushes appends a carried part's push section to ds.pushes,
// their member sets to ds.nodes. It counts what it rejects.
func (n *Node) decodePushes(ds *decodeScratch, r *msg.Reader, from msg.NodeID) bool {
	count := int(r.U32())
	// At least 22 bytes a push: a 1-byte length prefix, the object, the
	// sequence number, the member count, one member and the span count.
	if r.Err() != nil || count <= 0 || count > r.Remaining()/22 {
		n.ctr.DropMalformed.Inc()
		return false
	}
	nodes := msg.NodeID(n.nodes)
	for i := 0; i < count; i++ {
		e := r.Entry()
		id := memory.ObjectID(e.U32())
		seq := e.U64()
		members := int(e.U32())
		if e.Err() != nil || members <= 0 || members > e.Remaining()/4 {
			n.ctr.DropMalformed.Inc()
			return false
		}
		// Members are strictly increasing, so none repeats, and each is
		// a node of the cluster other than the sender.
		lo := len(ds.nodes)
		for j := 0; j < members; j++ {
			m := msg.NodeID(e.U32())
			if m < 0 || m >= nodes || m == from || j > 0 && m <= ds.nodes[len(ds.nodes)-1] {
				n.ctr.DropMalformed.Inc()
				return false
			}
			ds.nodes = append(ds.nodes, m)
		}
		slo := len(ds.spans)
		ds.spans = memory.DecodeSpansView(ds.spans, e)
		if e.Err() != nil || r.Err() != nil {
			n.ctr.DropMalformed.Inc()
			return false
		}
		o := n.entryFromWire(id, ds.spans[slo:])
		if o == nil {
			return false
		}
		if o.pol.Load().flush != flushConsumers {
			n.ctr.DropMisdirected.Inc()
			return false
		}
		ds.pushes = append(ds.pushes, pushEntry{
			applyEntry: applyEntry{id: id, seq: seq, spans: ds.spans[slo:len(ds.spans):len(ds.spans)]},
			members:    ds.nodes[lo:len(ds.nodes):len(ds.nodes)],
		})
	}
	return true
}

// releasePart is one arrival's release in a barrier merge: its own
// entries [lo, hi) of the merge and, for a carrier, the relays its
// release carries (run), size bytes in all.
type releasePart struct {
	lo, hi int
	run    []relay
	size   int
}

// barrierMerge is the home's merge at a barrier's last arrival
// (dlock.AttachBarrier).
//
//   - Every write-many and result entry, in arrival order, is merged as
//     one batch with a sender per entry (stampBatch); the home's own
//     participant's entries are already in the home copies, and are
//     stamped and relayed with the others.
//   - Every push is routed by member: applied here for this node, and
//     relayed to every other member like a write-many update, under its
//     producer's sequence number.
//   - A remote participant whose arrival is a carrier's is a carrier
//     unless another arrival came from its node too: its relays ride its
//     release. Everyone else's relays are sent and acknowledged inside
//     the merge, before any release is.
//
// The releases keep the merge's scratch until dlock has written them.
func (n *Node) barrierMerge(arrivals []dlock.Arrival) (dlock.Releases, error) {
	ds := getDecodeScratch()
	for _, a := range arrivals {
		lo, np := len(ds.entries), len(ds.pushes)
		switch {
		case a.Local != nil:
			fs := a.Local.(*flushScratch)
			ds.entries = append(ds.entries, fs.carried...)
			for range fs.carried {
				ds.froms = append(ds.froms, a.From)
			}
			ds.pushes = append(ds.pushes, fs.pushes...)
		case len(a.Carried) > 0 && !n.decodeCarried(ds, a.Carried, a.From):
			// Each part passed its check when it arrived. One that fails
			// now all the same merges nothing, and its participant's
			// release, which gives back none of its entries, fails the
			// barrier there.
			ds.entries, ds.froms, ds.pushes = ds.entries[:lo], ds.froms[:lo], ds.pushes[:np]
		}
		ds.parts = append(ds.parts, releasePart{lo: lo, hi: len(ds.entries)})
		if a.Carrier && a.From != n.id && soleArrival(arrivals, a.From) {
			ds.carriers = append(ds.carriers, a.From)
		}
	}
	// A push aimed at this node is applied before anything is released.
	for _, p := range ds.pushes {
		if slices.Contains(p.members, n.id) {
			n.applyRefresh(n.mustObj(p.id), p.seq, p.spans)
		}
	}
	n.lockRelays(ds, ds.entries)
	n.stampBatch(ds, ds.entries, n.id)
	for _, p := range ds.pushes {
		k := len(ds.entries)
		ds.entries = append(ds.entries, batchEntry{id: p.id, spans: p.spans})
		ds.seqs = append(ds.seqs, p.seq)
		for _, m := range p.members {
			if m != n.id {
				ds.relays = append(ds.relays, relay{to: m, entry: k})
			}
		}
	}
	err := n.sendRelays(ds, ds.entries)
	unlockRelays(ds)

	// ds.relays is sorted by holder, each holder's run in entry order.
	for i, a := range arrivals {
		pt := &ds.parts[i]
		if a.From == n.id {
			continue // the home's own: everything took effect in place
		}
		if slices.Contains(ds.carriers, a.From) {
			for k := 0; k < len(ds.relays); {
				r := holderRun(ds.relays[k:])
				k += len(r)
				if r[0].to == a.From {
					pt.run = r
					break
				}
			}
		}
		if pt.lo == pt.hi && len(pt.run) == 0 {
			continue
		}
		pt.size = 4 + (pt.hi-pt.lo)*(1+13)
		for _, r := range pt.run {
			esz := 13 + memory.EncodedSpansSize(ds.entries[r.entry].spans)
			pt.size += msg.UvarintLen(uint64(esz)) + esz
		}
		n.ctr.BarrierReleased.Add(int64(len(pt.run)))
	}
	return (*releases)(ds), err
}

// soleArrival reports whether from sent exactly one of the arrivals.
func soleArrival(arrivals []dlock.Arrival, from msg.NodeID) bool {
	k := 0
	for _, a := range arrivals {
		if a.From == from {
			k++
		}
	}
	return k == 1
}

// releases is a barrier merge's release bodies (dlock.Releases): the
// merge's scratch, kept until every reply is written.
type releases decodeScratch

func (rs *releases) Size(i int) int { return rs.parts[i].size }

// Put writes one participant's release body: its own entries and the
// updates in its run, interleaved in entry order, which is the order the
// merge stamped them in.
func (rs *releases) Put(i int, b *msg.Builder) {
	pt := rs.parts[i]
	b.U32(uint32(pt.hi - pt.lo + len(pt.run)))
	lo := pt.lo
	own := func(i int) {
		b.Uvarint(13).U32(uint32(rs.entries[i].id)).U64(rs.seqs[i]).Bool(false)
	}
	for _, r := range pt.run {
		for ; lo < pt.hi && lo < r.entry; lo++ {
			own(lo)
		}
		e := rs.entries[r.entry]
		b.Uvarint(uint64(13 + memory.EncodedSpansSize(e.spans)))
		b.U32(uint32(e.id)).U64(rs.seqs[r.entry]).Bool(true)
		memory.EncodeSpans(b, e.spans)
	}
	for ; lo < pt.hi; lo++ {
		own(lo)
	}
}

func (rs *releases) Done() { putDecodeScratch((*decodeScratch)(rs)) }
