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
// result updates to objects homed at the barrier's home before it
// arrives: they ride the arrival (FlushAtBarrier). The home checks each
// carried part as it arrives (barrierCheck) and merges them all when the
// last participant arrives (barrierMerge), so nothing is stamped or
// half-merged while the barrier is open. Each release then carries the
// participant's own sequence numbers and the other participants'
// updates to the objects it holds copies of; every copy holder that is
// not such a participant gets the ordinary acknowledged relay before
// any release is sent.
//
// A release body is a count word and one length-prefixed entry per
// update, in merge order: the object (U32), its sequence number (U64),
// and whether the entry is another sender's update (Bool), whose spans
// follow, or the participant's own, which carries none.

// FlushAtBarrier is FlushQueue for a thread that runs alone on its node,
// ahead of its arrival at a barrier homed on node home. Updates homed
// elsewhere, and producer-consumer pushes, take the ordinary flush and
// are acknowledged first; the write-many and result updates homed at
// home are carried by the arrival, which arrive sends (size bytes,
// written by carry) before it returns the release's body. When home is
// this node the carried updates are already in the home copies: the
// arrival hands them to the merge without a message, which stamps them
// and relays them with the other participants' (barrierMerge). The flush
// locks of every drained object stay held until the release is applied:
// only a thread alone on its node may do that, for a co-located thread
// flushing the same object would wait behind the whole barrier, and a
// co-located reader could see the object before the release that
// updates it was applied.
//
// The release is applied in merge order — advanceOwn for the thread's
// own entries, applyRefresh for the others' — so an object updated by
// two participants moves through its sequence numbers in order. A flush
// error returns before the arrival, as FlushQueue's panic did before
// BarrierWait; an error arrive or the home reports comes back after
// whatever body the release had was applied.
func (n *Node) FlushAtBarrier(q *duq.Queue, home msg.NodeID, arrive func(size int, carry func(*msg.Builder)) ([]byte, error)) error {
	lockrank.Blocking()
	n.syncEpoch.Add(1) // a synchronization point, as in TryFlushQueue
	fs := getFlushScratch()
	defer putFlushScratch(fs)
	fs.ids = q.DrainInto(fs.ids[:0])
	defer q.Commit(fs.ids)
	n.lockDrained(fs)
	defer n.unlockDrained(fs)
	if err := n.flushBatched(fs, home); err != nil {
		return err
	}
	carried := fs.carried
	size := 0
	if len(carried) > 0 {
		size = diffEntriesSize(carried)
		n.ctr.BarrierCarried.Add(int64(len(carried)))
		if home != n.id { // an arrival at this node's own barrier is no message
			n.countBatch(len(carried), size)
		}
	}
	body, err := arrive(size, func(b *msg.Builder) { putDiffEntries(b, carried) })
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
// object this node homes, with spans inside it. A part that fails is
// dropped with its arrival, which does not count.
func (n *Node) barrierCheck(a dlock.Arrival) bool {
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	return n.decodeCarried(ds, a.Carried, a.From)
}

// decodeCarried appends a carried part's entries to ds.entries, and its
// sender to ds.froms once per entry. It counts what it rejects. The
// spans alias p: the home keeps the arrival until its release is sent.
func (n *Node) decodeCarried(ds *decodeScratch, p []byte, from msg.NodeID) bool {
	r := msg.NewReader(p)
	count := int(r.U32())
	// At least 9 bytes an entry, as in a kindDiffBatch (handleDiffBatch).
	if r.Err() != nil || count <= 0 || count > r.Remaining()/9 {
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
		if o.pol.flush != flushHome || n.homeOf(&o.meta) != n.id {
			n.ctr.DropMisdirected.Inc()
			return false
		}
		ds.entries = append(ds.entries, batchEntry{id: id, spans: ds.spans[lo:len(ds.spans):len(ds.spans)]})
		ds.froms = append(ds.froms, from)
	}
	if r.Remaining() != 0 {
		n.ctr.DropMalformed.Inc()
		return false
	}
	return true
}

// barrierMerge is the home's merge at a barrier's last arrival
// (dlock.AttachBarrier): every carried entry, in arrival order, goes
// through homeMergeBatch as one batch with a sender per entry; the
// home's own participant's entries are already in the home copies, and
// are stamped and relayed with the others. A participant that carried
// something is a carrier — its relays ride its release — unless another
// arrival came from its node too; everyone else's relays are sent and
// acknowledged inside the merge. It returns each arrival's release
// body: nil for one that carried nothing.
func (n *Node) barrierMerge(arrivals []dlock.Arrival) ([][]byte, error) {
	ds := getDecodeScratch()
	defer putDecodeScratch(ds)
	starts := make([]int, len(arrivals)+1)
	for i, a := range arrivals {
		starts[i] = len(ds.entries)
		// Each part passed its check when it arrived. One that fails now
		// all the same merges nothing, and its participant's release,
		// which gives back none of its entries, fails the barrier there.
		if len(a.Carried) > 0 && !n.decodeCarried(ds, a.Carried, a.From) {
			ds.entries, ds.froms = ds.entries[:starts[i]], ds.froms[:starts[i]]
		}
	}
	starts[len(arrivals)] = len(ds.entries)
	for i, a := range arrivals {
		if starts[i] == starts[i+1] {
			continue
		}
		solo := true
		for j, b := range arrivals {
			if j != i && b.From == a.From {
				solo = false
			}
		}
		if solo {
			ds.carriers = append(ds.carriers, a.From)
		}
	}
	seqs, err := n.homeMergeBatch(ds, ds.entries, 0)

	// ds.relays is sorted by holder, each holder's run in entry order.
	bodies := make([][]byte, len(arrivals))
	for i, a := range arrivals {
		lo, hi := starts[i], starts[i+1]
		if lo == hi {
			continue
		}
		var run []relay
		if slices.Contains(ds.carriers, a.From) {
			for k := 0; k < len(ds.relays); {
				r := holderRun(ds.relays[k:])
				k += len(r)
				if r[0].to == a.From {
					run = r
					break
				}
			}
		}
		bodies[i] = encodeRelease(ds.entries, seqs, lo, hi, run)
		n.ctr.BarrierReleased.Add(int64(len(run)))
	}
	return bodies, err
}

// encodeRelease builds one participant's release body: its own entries
// [lo, hi) and the updates in run, interleaved in entry order, which is
// the order the merge stamped them in.
func encodeRelease(entries []batchEntry, seqs []uint64, lo, hi int, run []relay) []byte {
	size := 4 + (hi-lo)*(1+13)
	for _, r := range run {
		esz := 13 + memory.EncodedSpansSize(entries[r.entry].spans)
		size += msg.UvarintLen(uint64(esz)) + esz
	}
	var b msg.Builder
	b.Reset(make([]byte, 0, size))
	b.U32(uint32(hi - lo + len(run)))
	own := func(i int) {
		b.Uvarint(13).U32(uint32(entries[i].id)).U64(seqs[i]).Bool(false)
	}
	for _, r := range run {
		for ; lo < hi && lo < r.entry; lo++ {
			own(lo)
		}
		e := entries[r.entry]
		b.Uvarint(uint64(13 + memory.EncodedSpansSize(e.spans)))
		b.U32(uint32(e.id)).U64(seqs[r.entry]).Bool(true)
		memory.EncodeSpans(&b, e.spans)
	}
	for ; lo < hi; lo++ {
		own(lo)
	}
	return b.Bytes()
}
