package duq

import (
	"errors"
	"testing"
	"testing/quick"

	"munin/internal/memory"
)

// flush drives the two-step contract the way the protocol layer does,
// one object at a time: drain, emit each entry in order, commit what
// was emitted. An emit error stops the flush and commits only the
// entries before it, so the failed object and everything after it stay
// queued.
func flush(q *Queue, emit func(memory.ObjectID) error) error {
	pending := q.DrainInto(nil)
	for i, obj := range pending {
		if err := emit(obj); err != nil {
			q.Commit(pending[:i])
			return err
		}
	}
	q.Commit(pending)
	return nil
}

func TestMarkDirtyFirstAndCombine(t *testing.T) {
	q := New()
	if !q.MarkDirty(1) {
		t.Fatal("first mark not reported first")
	}
	if q.MarkDirty(1) {
		t.Fatal("second mark reported first")
	}
	if !q.MarkDirty(2) {
		t.Fatal("new object not first")
	}
	if q.Pending() != 2 {
		t.Fatalf("pending = %d", q.Pending())
	}
	writes, combined, _, _ := q.Stats()
	if writes != 3 || combined != 1 {
		t.Fatalf("writes=%d combined=%d", writes, combined)
	}
}

func TestFlushPreservesFirstWriteOrder(t *testing.T) {
	q := New()
	// Program order of first writes: 5, 3, 9; 3 written again.
	q.MarkDirty(5)
	q.MarkDirty(3)
	q.MarkDirty(9)
	q.MarkDirty(3)
	var got []memory.ObjectID
	if err := flush(q, func(o memory.ObjectID) error {
		got = append(got, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []memory.ObjectID{5, 3, 9}
	if len(got) != 3 || got[0] != 5 || got[1] != 3 || got[2] != 9 {
		t.Fatalf("flush order = %v, want %v", got, want)
	}
	if q.Pending() != 0 {
		t.Fatalf("pending after flush = %d", q.Pending())
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	q := New()
	called := false
	if err := flush(q, func(memory.ObjectID) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("emit called on empty queue")
	}
}

func TestFlushErrorKeepsRemainder(t *testing.T) {
	q := New()
	q.MarkDirty(1)
	q.MarkDirty(2)
	q.MarkDirty(3)
	boom := errors.New("boom")
	err := flush(q, func(o memory.ObjectID) error {
		if o == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// 1 emitted; 2 and 3 remain, 2 at head.
	if q.Pending() != 2 || !q.Contains(2) || !q.Contains(3) || q.Contains(1) {
		t.Fatalf("pending=%d contains: 1=%v 2=%v 3=%v",
			q.Pending(), q.Contains(1), q.Contains(2), q.Contains(3))
	}
	var got []memory.ObjectID
	flush(q, func(o memory.ObjectID) error { got = append(got, o); return nil })
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retry order = %v", got)
	}
}

func TestRedirtyAfterFlushIsFirstAgain(t *testing.T) {
	q := New()
	q.MarkDirty(7)
	flush(q, func(memory.ObjectID) error { return nil })
	if !q.MarkDirty(7) {
		t.Fatal("object not 'first' after flush")
	}
}

func TestStatsCountUpdatesAndFlushes(t *testing.T) {
	q := New()
	q.MarkDirty(1)
	q.MarkDirty(2)
	flush(q, func(memory.ObjectID) error { return nil })
	q.MarkDirty(1)
	flush(q, func(memory.ObjectID) error { return nil })
	flush(q, func(memory.ObjectID) error { return nil }) // empty
	_, _, updates, flushes := q.Stats()
	if updates != 3 || flushes != 2 {
		t.Fatalf("updates=%d flushes=%d", updates, flushes)
	}
}

func TestDrainReturnsOrderWithoutClearing(t *testing.T) {
	q := New()
	q.MarkDirty(4)
	q.MarkDirty(2)
	q.MarkDirty(4)
	q.MarkDirty(6)
	got := q.DrainInto(nil)
	want := []memory.ObjectID{4, 2, 6}
	if len(got) != len(want) || got[0] != 4 || got[1] != 2 || got[2] != 6 {
		t.Fatalf("drain = %v, want %v", got, want)
	}
	// Drain is a plan, not a removal: everything is still pending.
	if q.Pending() != 3 || !q.Contains(4) || !q.Contains(2) || !q.Contains(6) {
		t.Fatalf("drain removed entries: pending=%d", q.Pending())
	}
	// The result lives in the caller's scratch: mutating it must not
	// corrupt the queue, and a second drain appends behind what is there.
	got[0] = 99
	if !q.Contains(4) || q.Contains(99) {
		t.Fatal("drain result aliases queue state")
	}
	if again := q.DrainInto(got[:1]); len(again) != 4 || again[0] != 99 || again[1] != 4 || again[3] != 6 {
		t.Fatalf("drain into used scratch = %v, want [99 4 2 6]", again)
	}
}

func TestCommitRemovesOnlyEmitted(t *testing.T) {
	q := New()
	q.MarkDirty(1)
	q.MarkDirty(2)
	q.MarkDirty(3)
	q.MarkDirty(4)
	// A batched flush may succeed out of prefix order (one destination's
	// batch landed, another's failed): commit {1, 3} only.
	q.Commit([]memory.ObjectID{1, 3})
	if q.Pending() != 2 || q.Contains(1) || q.Contains(3) {
		t.Fatalf("commit left pending=%d 1=%v 3=%v", q.Pending(), q.Contains(1), q.Contains(3))
	}
	// The survivors keep their original relative order.
	var got []memory.ObjectID
	if err := flush(q, func(o memory.ObjectID) error { got = append(got, o); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("surviving order = %v, want [2 4]", got)
	}
}

func TestCommitCountsUpdatesAndFlushes(t *testing.T) {
	q := New()
	q.MarkDirty(1)
	q.MarkDirty(2)
	q.Commit(q.DrainInto(nil))
	_, _, updates, flushes := q.Stats()
	if updates != 2 || flushes != 1 {
		t.Fatalf("updates=%d flushes=%d", updates, flushes)
	}
	// Committing objects that are not pending is a no-op — no phantom
	// flush, no double counting.
	q.Commit([]memory.ObjectID{1, 2})
	_, _, updates, flushes = q.Stats()
	if updates != 2 || flushes != 1 {
		t.Fatalf("after redundant commit: updates=%d flushes=%d", updates, flushes)
	}
}

func TestPartialCommitLeavesNoFlushCredit(t *testing.T) {
	q := New()
	q.MarkDirty(1)
	q.MarkDirty(2)
	q.Commit([]memory.ObjectID{1})
	_, _, updates, flushes := q.Stats()
	if updates != 1 || flushes != 0 {
		t.Fatalf("partial commit: updates=%d flushes=%d", updates, flushes)
	}
	q.Commit([]memory.ObjectID{2})
	_, _, updates, flushes = q.Stats()
	if updates != 2 || flushes != 1 {
		t.Fatalf("completing commit: updates=%d flushes=%d", updates, flushes)
	}
}

func TestMidFlushErrorKeepsFailedAndLaterInOrder(t *testing.T) {
	// The duq failure contract the protocol layer relies on: when a
	// flush dies partway (a batch Call failing), the failed object and
	// every later entry must still be queued, in first-modification
	// order, so the retry propagates them in program order.
	q := New()
	for _, id := range []memory.ObjectID{10, 20, 30, 40, 50} {
		q.MarkDirty(id)
	}
	boom := errors.New("link down")
	err := flush(q, func(o memory.ObjectID) error {
		if o == 30 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var got []memory.ObjectID
	if err := flush(q, func(o memory.ObjectID) error { got = append(got, o); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 30 || got[1] != 40 || got[2] != 50 {
		t.Fatalf("retry order = %v, want [30 40 50]", got)
	}
	if q.Pending() != 0 {
		t.Fatalf("pending after retry = %d", q.Pending())
	}
}

func TestCombiningProperty(t *testing.T) {
	// Property: after any sequence of writes, the number of emitted
	// updates at flush equals the number of distinct objects written,
	// and writes == updates + combined.
	f := func(objs []uint8) bool {
		q := New()
		distinct := map[memory.ObjectID]bool{}
		for _, o := range objs {
			id := memory.ObjectID(o % 16)
			q.MarkDirty(id)
			distinct[id] = true
		}
		n := 0
		flush(q, func(memory.ObjectID) error { n++; return nil })
		writes, combined, updates, _ := q.Stats()
		return n == len(distinct) && updates == int64(n) &&
			writes == updates+combined && writes == int64(len(objs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlushOrderProperty(t *testing.T) {
	// Property: flush order is exactly the order of first occurrence.
	f := func(objs []uint8) bool {
		q := New()
		var firstOrder []memory.ObjectID
		seen := map[memory.ObjectID]bool{}
		for _, o := range objs {
			id := memory.ObjectID(o)
			if q.MarkDirty(id) != !seen[id] {
				return false
			}
			if !seen[id] {
				seen[id] = true
				firstOrder = append(firstOrder, id)
			}
		}
		var got []memory.ObjectID
		flush(q, func(o memory.ObjectID) error { got = append(got, o); return nil })
		if len(got) != len(firstOrder) {
			return false
		}
		for i := range got {
			if got[i] != firstOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
