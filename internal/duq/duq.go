// Package duq implements the delayed update queue, the mechanism behind
// Munin's loose coherence (paper §3.2). Each thread owns one Queue.
// When the thread modifies a write-buffered object (write-many, result),
// the object is marked dirty in the queue; nothing is sent. When the
// thread synchronizes — lock acquire or release, barrier, thread exit —
// the pending set is propagated as one combined update (the bytes the
// object's dirty set recorded) per dirty object, in the order the
// objects were first modified.
//
// The queue is a planning structure, not an emitter. The protocol layer
// flushes in two steps: DrainInto returns the dirty set in
// first-modification order without removing anything, the caller plans
// the whole emission at once — grouping objects by destination,
// batching the wire messages, pipelining distinct destinations — and
// then Commit removes exactly what was emitted. A flush that fails
// partway commits only its successes; the failed object and everything
// after it stay queued in their original order, so a retry re-emits
// them without reordering.
//
// Ordering: the paper requires updates to be propagated "in the order
// that they occur in the program execution" so a remote thread can never
// observe a later update while missing an earlier one. Draining in
// first-modification order preserves exactly that inter-object order.
// Within one synchronization interval, multiple writes to the same
// object are combined into a single update — the combining the paper
// credits with reducing network traffic — which is safe because no
// remote thread may legally observe intermediate states between two of
// this thread's synchronization points.
package duq

import (
	"munin/internal/memory"
	"munin/internal/stats"
)

// Queue is one thread's delayed update queue. It is not safe for
// concurrent use: exactly one thread records into and flushes it, per
// the paper's per-thread design.
type Queue struct {
	order []memory.ObjectID
	dirty map[memory.ObjectID]bool

	writes    int64 // write operations recorded
	flushes   int64 // flushes that emitted at least one update
	updates   int64 // combined updates emitted
	combined  int64 // writes absorbed into an already-dirty entry
	emptyFlux int64 // flushes with nothing pending

	// Reads, Writes and Buffered are this thread's cells of its node's
	// reads, writes and write.buffered counters. A queue is the one thing
	// every access of a thread carries down to the protocol layer, which
	// attaches the cells when the runtime starts the thread and folds
	// them into the counters when it exits (protocol.Node.Attach and
	// Detach). Through a queue that is never attached, accesses add to
	// the counters' own words.
	Reads, Writes, Buffered stats.Cell
}

// New creates an empty queue.
func New() *Queue {
	return &Queue{dirty: make(map[memory.ObjectID]bool)}
}

// MarkDirty records that obj was modified by this thread. It returns
// true if this is the first modification of obj by this thread since its
// last flush (which bytes were written is the object's dirty set's to
// know, not the queue's).
func (q *Queue) MarkDirty(obj memory.ObjectID) (first bool) {
	q.writes++
	if q.dirty[obj] {
		q.combined++
		return false
	}
	q.dirty[obj] = true
	q.order = append(q.order, obj)
	return true
}

// Pending returns the number of distinct objects with delayed updates.
func (q *Queue) Pending() int { return len(q.order) }

// Contains reports whether obj has a pending delayed update.
func (q *Queue) Contains(obj memory.ObjectID) bool { return q.dirty[obj] }

// DrainInto appends the pending dirty set, in first-modification order,
// to caller-owned scratch without removing it (dst keeps its capacity
// across flushes, so the flush hot path does not allocate). The
// protocol layer uses it to plan a whole flush at once — grouping
// objects by destination and batching the wire messages. The caller
// reports what it actually emitted with Commit; until then every entry
// stays queued.
func (q *Queue) DrainInto(dst []memory.ObjectID) []memory.ObjectID {
	if len(q.order) == 0 {
		q.emptyFlux++
		return dst
	}
	return append(dst, q.order...)
}

// Commit removes the given emitted objects from the queue, counting
// each as one propagated update. Objects not committed stay queued in
// their original first-modification order, so a flush that fails
// partway commits only what it emitted and the failed object plus all
// later entries remain queued in order. Objects not pending are
// ignored.
func (q *Queue) Commit(emitted []memory.ObjectID) {
	if len(emitted) == 0 {
		return
	}
	// Emissions normally arrive in drain order, so a single cursor
	// matches them in O(n) without building a set (the old per-flush
	// done-map was one of the steady-state flush allocations); the inner
	// scan only runs for out-of-order commits.
	j := 0
	removed := 0
	rest := q.order[:0]
	for _, o := range q.order {
		hit := false
		if j < len(emitted) && emitted[j] == o {
			hit = true
			j++
		} else {
			for _, e := range emitted {
				if e == o {
					hit = true
					break
				}
			}
		}
		if hit && q.dirty[o] {
			delete(q.dirty, o)
			q.updates++
			removed++
			continue
		}
		rest = append(rest, o)
	}
	q.order = rest
	if removed > 0 && len(q.order) == 0 {
		q.flushes++
	}
}

// Stats reports the queue's counters: total writes recorded, writes
// combined into an existing entry, updates emitted, and non-empty
// flushes.
func (q *Queue) Stats() (writes, combined, updates, flushes int64) {
	return q.writes, q.combined, q.updates, q.flushes
}
