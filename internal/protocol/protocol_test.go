package protocol

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
)

// rig is an n-node Munin cluster for protocol tests.
type rig struct {
	c     *cluster.Cluster
	locks []*dlock.Service
	nodes []*Node
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{c: c}
	for i := 0; i < n; i++ {
		k := c.Kernel(msg.NodeID(i))
		ls := dlock.NewService(k)
		r.locks = append(r.locks, ls)
		r.nodes = append(r.nodes, NewNode(k, ls))
	}
	t.Cleanup(c.Close)
	return r
}

func (r *rig) alloc(id memory.ObjectID, name string, size int, a Annotation, opts Options, init []byte) {
	r.nodes[0].Alloc(Meta{ID: id, Name: name, Size: size, Annot: a, Opts: opts}, init)
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func readU64(n *Node, q *duq.Queue, id memory.ObjectID, off int) uint64 {
	var b [8]byte
	n.Read(q, id, off, b[:])
	return binary.BigEndian.Uint64(b[:])
}

func msgs(r *rig) int64 { return r.c.Stats().Messages() }

// ---------------------------------------------------------------------
// Write-once

func TestWriteOnceReplicatesOnDemand(t *testing.T) {
	r := newRig(t, 3)
	init := []byte("constant table!!")
	r.alloc(1, "tbl", len(init), WriteOnce, DefaultOptions(), init)
	q := duq.New()

	buf := make([]byte, len(init))
	r.nodes[2].Read(q, 1, 0, buf)
	if string(buf) != string(init) {
		t.Fatalf("read %q", buf)
	}
	// Second read is local: no new traffic.
	before := msgs(r)
	r.nodes[2].Read(q, 1, 0, buf)
	if msgs(r) != before {
		t.Fatal("re-read of replicated write-once object sent messages")
	}
}

func TestWriteOnceRejectsLateWrites(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "tbl", 8, WriteOnce, DefaultOptions(), nil) // home = node 1
	q := duq.New()
	defer func() {
		if recover() == nil {
			t.Fatal("write-once write from non-home did not panic")
		}
	}()
	r.nodes[0].Write(q, 1, 0, []byte{1})
}

func TestWriteOnceInitThenFreeze(t *testing.T) {
	r := newRig(t, 2)
	// Object 2 is homed on node 0 (2 % 2).
	r.alloc(2, "tbl", 8, WriteOnce, DefaultOptions(), nil)
	q := duq.New()
	// Home may initialize while sole copy.
	r.nodes[0].Write(q, 2, 0, u64bytes(42))
	if got := readU64(r.nodes[0], q, 2, 0); got != 42 {
		t.Fatalf("home read = %d", got)
	}
	// Replicate to node 1, then home writes must panic.
	if got := readU64(r.nodes[1], q, 2, 0); got != 42 {
		t.Fatalf("remote read = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write after replication did not panic")
		}
	}()
	r.nodes[0].Write(q, 2, 0, u64bytes(7))
}

func TestWriteOncePageoutAndRefetch(t *testing.T) {
	r := newRig(t, 2)
	init := []byte("bigreadonlydata!")
	r.alloc(2, "big", len(init), WriteOnce, DefaultOptions(), init)
	q := duq.New()
	buf := make([]byte, len(init))
	r.nodes[1].Read(q, 2, 0, buf)
	r.nodes[1].Evict(2)
	before := msgs(r)
	r.nodes[1].Read(q, 2, 0, buf) // must refetch
	if msgs(r) == before {
		t.Fatal("no refetch after pageout")
	}
	if string(buf) != string(init) {
		t.Fatalf("refetched %q", buf)
	}
	// Evicting the home copy is a no-op.
	r.nodes[0].Evict(2)
	r.nodes[0].Read(q, 2, 0, buf)
	if string(buf) != string(init) {
		t.Fatal("home copy lost after Evict")
	}
}

// ---------------------------------------------------------------------
// Conventional (Ivy-like default)

func TestConventionalReadWrite(t *testing.T) {
	r := newRig(t, 3)
	r.alloc(1, "x", 8, Conventional, DefaultOptions(), u64bytes(5))
	q := duq.New()
	if got := readU64(r.nodes[0], q, 1, 0); got != 5 {
		t.Fatalf("initial read = %d", got)
	}
	r.nodes[0].Write(q, 1, 0, u64bytes(6))
	// Strict coherence: every node sees the latest write immediately.
	for i := 0; i < 3; i++ {
		if got := readU64(r.nodes[i], q, 1, 0); got != 6 {
			t.Fatalf("node %d read %d, want 6", i, got)
		}
	}
	r.nodes[2].Write(q, 1, 0, u64bytes(7))
	for i := 0; i < 3; i++ {
		if got := readU64(r.nodes[i], q, 1, 0); got != 7 {
			t.Fatalf("after second write node %d read %d, want 7", i, got)
		}
	}
}

func TestConventionalOwnerWritesAreLocal(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "x", 8, Conventional, DefaultOptions(), nil)
	q := duq.New()
	r.nodes[0].Write(q, 1, 0, u64bytes(1)) // acquires ownership
	before := msgs(r)
	for i := uint64(2); i < 50; i++ {
		r.nodes[0].Write(q, 1, 0, u64bytes(i))
	}
	if msgs(r) != before {
		t.Fatal("owner writes sent messages")
	}
}

func TestConventionalConcurrentWritersSerialize(t *testing.T) {
	r := newRig(t, 4)
	r.alloc(3, "ctr", 8, Conventional, DefaultOptions(), nil)
	// Concurrent read-modify-write without locks is racy by design;
	// here each node writes a distinct value repeatedly and we only
	// assert the final value is one of them and nothing deadlocks.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := duq.New()
			for j := 0; j < 25; j++ {
				r.nodes[i].Write(q, 3, 0, u64bytes(uint64(i)+1))
				_ = readU64(r.nodes[i], q, 3, 0)
			}
		}(i)
	}
	wg.Wait()
	q := duq.New()
	got := readU64(r.nodes[0], q, 3, 0)
	if got < 1 || got > 4 {
		t.Fatalf("final value %d not written by anyone", got)
	}
}

// ---------------------------------------------------------------------
// General read-write (Berkeley ownership)

func TestGeneralRWDirtyOwnerServesReads(t *testing.T) {
	r := newRig(t, 3)
	r.alloc(1, "g", 8, GeneralRW, DefaultOptions(), nil)
	q := duq.New()
	r.nodes[2].Write(q, 1, 0, u64bytes(9)) // node 2 becomes dirty owner
	// A read from node 0 must see 9, served via the dirty owner.
	if got := readU64(r.nodes[0], q, 1, 0); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
	// Owner can still write after sharing — requires invalidation round.
	r.nodes[2].Write(q, 1, 0, u64bytes(10))
	if got := readU64(r.nodes[0], q, 1, 0); got != 10 {
		t.Fatalf("read = %d, want 10", got)
	}
}

func TestGeneralRWOwnershipMoves(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "g", 8, GeneralRW, DefaultOptions(), nil)
	q := duq.New()
	r.nodes[0].Write(q, 1, 0, u64bytes(1))
	r.nodes[1].Write(q, 1, 0, u64bytes(2))
	r.nodes[0].Write(q, 1, 0, u64bytes(3))
	if got := readU64(r.nodes[1], q, 1, 0); got != 3 {
		t.Fatalf("read = %d, want 3", got)
	}
}

// ---------------------------------------------------------------------
// Write-many + delayed updates

func TestWriteManyBuffersUntilFlush(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "wm", 16, WriteMany, DefaultOptions(), nil)
	q0, q1 := duq.New(), duq.New()

	// Node 1 reads first so it holds a copy (and is in the copyset).
	buf := make([]byte, 16)
	r.nodes[1].Read(q1, 1, 0, buf)

	r.nodes[0].Write(q0, 1, 0, u64bytes(11))
	// Before flush: node 1 still sees the old value (loose coherence).
	if got := readU64(r.nodes[1], q1, 1, 0); got != 0 {
		t.Fatalf("unflushed write visible remotely: %d", got)
	}
	// Writer sees its own write.
	if got := readU64(r.nodes[0], q0, 1, 0); got != 11 {
		t.Fatalf("writer does not see own write: %d", got)
	}
	r.nodes[0].FlushQueue(q0)
	// After flush + relay, node 1's copy is refreshed. Relay is
	// asynchronous (one-way), so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := readU64(r.nodes[1], q1, 1, 0); got == 11 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh never arrived: %d", readU64(r.nodes[1], q1, 1, 0))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteManyCombinesWritesIntoOneDiff(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(2, "wm", 64, WriteMany, DefaultOptions(), nil) // home = node 0
	q := duq.New()
	// 32 writes by node 1, one flush: exactly one DIFF message.
	for i := 0; i < 32; i++ {
		r.nodes[1].Write(q, 2, i, []byte{byte(i)})
	}
	// First write fetched the object (2 messages); measure from here.
	before := msgs(r)
	r.nodes[1].FlushQueue(q)
	sent := msgs(r) - before
	if sent != 2 { // one combined diff + its acknowledgment
		t.Fatalf("flush sent %d messages, want 2 (combined diff + ack)", sent)
	}
	if got := r.nodes[1].C.Get("diff.sent"); got != 1 {
		t.Fatalf("diff.sent = %d", got)
	}
}

func TestWriteManyConcurrentDisjointWritesMerge(t *testing.T) {
	r := newRig(t, 4)
	r.alloc(1, "wm", 32, WriteMany, DefaultOptions(), nil)
	// Four nodes each write their own 8-byte slot, then flush.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := duq.New()
			r.nodes[i].Write(q, 1, i*8, u64bytes(uint64(i)+100))
			r.nodes[i].FlushQueue(q)
		}(i)
	}
	wg.Wait()
	// The home (node 1) has every slot merged.
	q := duq.New()
	home := r.nodes[1]
	for i := 0; i < 4; i++ {
		if got := readU64(home, q, 1, i*8); got != uint64(i)+100 {
			t.Fatalf("slot %d = %d, want %d", i, got, i+100)
		}
	}
}

func TestWriteManyFlushWithoutWritesIsFree(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "wm", 8, WriteMany, DefaultOptions(), nil)
	q := duq.New()
	before := msgs(r)
	r.nodes[1].FlushQueue(q)
	if msgs(r) != before {
		t.Fatal("empty flush sent messages")
	}
}

func TestWriteManyIdenticalWriteProducesEmptyDiff(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(1, "wm", 8, WriteMany, DefaultOptions(), u64bytes(5))
	q := duq.New()
	r.nodes[1].Write(q, 1, 0, u64bytes(5)) // same value: diff is empty
	before := msgs(r)
	r.nodes[1].FlushQueue(q)
	if got := msgs(r) - before; got != 0 {
		t.Fatalf("flush of no-op write sent %d messages", got)
	}
}

// ---------------------------------------------------------------------
// Result

func TestResultMergesAtHome(t *testing.T) {
	r := newRig(t, 4)
	opts := DefaultOptions()
	opts.Home = 0 // collector runs on node 0
	r.alloc(9, "res", 32, Result, opts, nil)
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := duq.New()
			r.nodes[i].Write(q, 9, i*8, u64bytes(uint64(i*i)))
			r.nodes[i].FlushQueue(q)
		}(i)
	}
	wg.Wait()
	q := duq.New()
	for i := 1; i < 4; i++ {
		if got := readU64(r.nodes[0], q, 9, i*8); got != uint64(i*i) {
			t.Fatalf("slot %d = %d, want %d", i, got, i*i)
		}
	}
}

func TestResultDoesNotRelayToOtherCopies(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(9, "res", 16, Result, opts, nil)
	q1, q2 := duq.New(), duq.New()
	// Node 2 writes+flushes its slot first.
	r.nodes[2].Write(q2, 9, 8, u64bytes(7))
	r.nodes[2].FlushQueue(q2)
	// Node 1 writes+flushes: exactly 2 messages (fetch happened at
	// write; flush = 1 one-way diff)... write fetches copy (2 msgs),
	// flush sends 1 diff, and no relay to node 2.
	r.nodes[1].Write(q1, 9, 0, u64bytes(3))
	before := msgs(r)
	r.nodes[1].FlushQueue(q1)
	if got := msgs(r) - before; got != 2 {
		t.Fatalf("result flush sent %d messages, want 2 (diff + ack, no relay)", got)
	}
}

func TestResultRemoteReadSeesMerged(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(9, "res", 8, Result, opts, nil)
	q := duq.New()
	r.nodes[1].Write(q, 9, 0, u64bytes(77))
	r.nodes[1].FlushQueue(q)
	if got := readU64(r.nodes[1], q, 9, 0); got != 77 {
		t.Fatalf("remote result read = %d", got)
	}
}

// ---------------------------------------------------------------------
// Migratory

func TestMigratoryTravelsWithLock(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Lock = 40
	r.alloc(5, "mig", 8, Migratory, opts, u64bytes(100))
	q := duq.New()
	// Ring of increments under the lock.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			r.locks[i].Acquire(40)
			v := readU64(r.nodes[i], q, 5, 0)
			r.nodes[i].Write(q, 5, 0, u64bytes(v+1))
			r.locks[i].Release(40)
		}
	}
	r.locks[0].Acquire(40)
	if got := readU64(r.nodes[0], q, 5, 0); got != 109 {
		t.Fatalf("migratory value = %d, want 109", got)
	}
	r.locks[0].Release(40)
}

func TestMigratoryAccessWithoutLockPanics(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Lock = 41
	r.alloc(5, "mig", 8, Migratory, opts, nil)
	q := duq.New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lockless migratory access")
		}
	}()
	_ = readU64(r.nodes[1], q, 5, 0)
}

func TestMigratoryZeroExtraMessages(t *testing.T) {
	// The entire point of §3.3.3: moving the object costs no messages
	// beyond the lock transfer itself.
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Lock = 42 // homed on node 0
	r.alloc(6, "mig", 8, Migratory, opts, nil)

	q := duq.New()
	r.locks[1].Acquire(42)
	cohBefore := r.c.Stats().ByClass()["coherence"]
	v := readU64(r.nodes[1], q, 6, 0)
	r.nodes[1].Write(q, 6, 0, u64bytes(v+1))
	r.locks[1].Release(42)
	cohAfter := r.c.Stats().ByClass()["coherence"]
	if cohAfter != cohBefore {
		t.Fatalf("migratory access sent %d coherence messages, want 0", cohAfter-cohBefore)
	}
}

// ---------------------------------------------------------------------
// Producer-consumer

func TestProducerConsumerEagerPush(t *testing.T) {
	r := newRig(t, 3)
	r.alloc(7, "pc", 8, ProducerConsumer, DefaultOptions(), nil)
	qp, qc := duq.New(), duq.New()

	// Consumer on node 2 registers by reading (one stall).
	_ = readU64(r.nodes[2], qc, 7, 0)
	if got := r.nodes[2].C.Get("consumer.stall"); got != 1 {
		t.Fatalf("stalls = %d", got)
	}

	// Producer on node 0 writes + flushes.
	r.nodes[0].Write(qp, 7, 0, u64bytes(1))
	r.nodes[0].FlushQueue(qp)

	// The push is eager: the consumer's copy updates without it asking.
	deadline := time.Now().Add(2 * time.Second)
	for readU64(r.nodes[2], qc, 7, 0) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("eager push never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// And the consumer never stalled again.
	if got := r.nodes[2].C.Get("consumer.stall"); got != 1 {
		t.Fatalf("stalls after push = %d, want still 1", got)
	}
}

func TestProducerConsumerSequencedUpdates(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(7, "pc", 8, ProducerConsumer, DefaultOptions(), nil)
	qp, qc := duq.New(), duq.New()
	_ = readU64(r.nodes[1], qc, 7, 0) // register consumer

	for i := uint64(1); i <= 20; i++ {
		r.nodes[0].Write(qp, 7, 0, u64bytes(i))
		r.nodes[0].FlushQueue(qp)
	}
	deadline := time.Now().Add(2 * time.Second)
	for readU64(r.nodes[1], qc, 7, 0) != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("consumer stuck at %d", readU64(r.nodes[1], qc, 7, 0))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProducerConsumerLateConsumerCatchesUp(t *testing.T) {
	r := newRig(t, 3)
	r.alloc(7, "pc", 8, ProducerConsumer, DefaultOptions(), nil)
	qp := duq.New()
	// Producer pushes several updates before anyone consumes.
	for i := uint64(1); i <= 5; i++ {
		r.nodes[0].Write(qp, 7, 0, u64bytes(i))
		r.nodes[0].FlushQueue(qp)
	}
	// Late consumer reads: must see the latest value via registration.
	qc := duq.New()
	if got := readU64(r.nodes[2], qc, 7, 0); got != 5 {
		t.Fatalf("late consumer read %d, want 5", got)
	}
	// And receives subsequent pushes.
	r.nodes[0].Write(qp, 7, 0, u64bytes(6))
	r.nodes[0].FlushQueue(qp)
	deadline := time.Now().Add(2 * time.Second)
	for readU64(r.nodes[2], qc, 7, 0) != 6 {
		if time.Now().After(deadline) {
			t.Fatal("late consumer never got the push")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentConsumersAllGetPushes: consumers that register at once
// each send the producer a consumer set, and the sets must reach it in
// the order the home took them; if the older lands last, the newer
// consumer drops out of every later push and reads its registration
// copy for ever. Both shapes: the home produces (the set is installed
// in place) and another node does (kindConsUpd).
func TestConcurrentConsumersAllGetPushes(t *testing.T) {
	for _, shape := range []struct{ nodes, producer int }{{3, 0}, {4, 1}} {
		for iter := 0; iter < 300; iter++ {
			func() {
				r := newRig(t, shape.nodes)
				defer r.c.Close()
				opts := DefaultOptions()
				opts.Home = 0
				r.alloc(7, "pc", 8, ProducerConsumer, opts, nil)
				qp := duq.New()
				prod := r.nodes[shape.producer]
				prod.Write(qp, 7, 0, u64bytes(1))
				prod.FlushQueue(qp)
				var wg sync.WaitGroup
				qs := make([]*duq.Queue, shape.nodes)
				for c := shape.producer + 1; c < shape.nodes; c++ {
					qs[c] = duq.New()
					wg.Add(1)
					go func() {
						defer wg.Done()
						readU64(r.nodes[c], qs[c], 7, 0)
					}()
				}
				wg.Wait()
				prod.Write(qp, 7, 0, u64bytes(2))
				prod.FlushQueue(qp)
				for c := shape.producer + 1; c < shape.nodes; c++ {
					if got := readU64(r.nodes[c], qs[c], 7, 0); got != 2 {
						t.Fatalf("%d nodes, producer %d, run %d: consumer %d reads %d after the push, want 2",
							shape.nodes, shape.producer, iter, c, got)
					}
				}
			}()
		}
	}
}

// ---------------------------------------------------------------------
// Read-mostly

func TestReadMostlyRemoteLoadStore(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(8, "rm", 8, ReadMostly, DefaultOptions(), u64bytes(3))
	q := duq.New()
	if got := readU64(r.nodes[1], q, 8, 0); got != 3 {
		t.Fatalf("remote load = %d", got)
	}
	r.nodes[1].Write(q, 8, 0, u64bytes(4))
	if got := readU64(r.nodes[1], q, 8, 0); got != 4 {
		t.Fatalf("after remote store = %d", got)
	}
	// Every remote access costs messages (no caching in remote mode).
	before := msgs(r)
	_ = readU64(r.nodes[1], q, 8, 0)
	if msgs(r) == before {
		t.Fatal("remote-mode read was served locally")
	}
	if r.nodes[1].C.Get("remote.load") < 2 {
		t.Fatal("remote.load counter not incremented")
	}
}

// TestReadMostlyDynamicSwitchesToReplication: node 1's 32nd remote load
// makes the home swap the object to replication, and that load's reply
// says so, so node 1's next read faults a copy in and the rest are
// local: 64 reads cost 32 remote loads and one fault, 66 messages.
func TestReadMostlyDynamicSwitchesToReplication(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	opts.Dynamic = true
	r.alloc(8, "rm", 8, ReadMostly, opts, u64bytes(1))
	q := duq.New()
	before := msgs(r)
	for i := 0; i < 64; i++ {
		if got := readU64(r.nodes[1], q, 8, 0); got != 1 {
			t.Fatalf("read %d = %d, want 1", i, got)
		}
	}
	if d := msgs(r) - before; d != 66 {
		t.Fatalf("64 reads sent %d messages, want 66 (32 remote loads, 1 fault)", d)
	}
	for i, n := range r.nodes {
		if pol := n.mustObj(8).pol.Load(); pol != &replicatedRow {
			t.Fatalf("node %d is not on the replicated row after the switch", i)
		}
	}
	if got := r.nodes[0].C.Get("mode.switch"); got != 1 {
		t.Fatalf("mode.switch = %d at the home, want 1", got)
	}
	// Writes still propagate (refresh) to the cached copy.
	r.nodes[0].Write(q, 8, 0, u64bytes(2))
	if got := readU64(r.nodes[1], q, 8, 0); got != 2 {
		t.Fatalf("read after the home's write = %d, want 2", got)
	}
}

// TestReadMostlyLateReaderLearnsTheSwitchFromItsLoad: after node 1's
// loads switched the object, node 2 — which saw no announce of it —
// learns from the reply to its own first remote load, faults a copy in
// at its second read and reads locally from then on; a store from it
// reaches node 1's copy and its own.
func TestReadMostlyLateReaderLearnsTheSwitchFromItsLoad(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 0
	opts.Dynamic = true
	r.alloc(8, "rm", 8, ReadMostly, opts, u64bytes(1))
	q := duq.New()
	for i := 0; i < 33; i++ {
		readU64(r.nodes[1], q, 8, 0) // 32 loads switch the object; the 33rd read faults a copy in
	}
	if pol := r.nodes[2].mustObj(8).pol.Load(); pol != &rows[ReadMostly] {
		t.Fatal("node 2 swapped its row before its first load")
	}
	for i, want := range []int64{2, 2, 0, 0} { // a remote load, a fault, then local reads
		before := msgs(r)
		if got := readU64(r.nodes[2], q, 8, 0); got != 1 {
			t.Fatalf("node 2's read %d = %d, want 1", i, got)
		}
		if d := msgs(r) - before; d != want {
			t.Fatalf("node 2's read %d sent %d messages, want %d", i, d, want)
		}
	}
	if got := r.nodes[2].C.Get("remote.load"); got != 1 {
		t.Fatalf("node 2 remote.load = %d, want 1", got)
	}
	r.nodes[2].Write(q, 8, 0, u64bytes(5))
	before := msgs(r)
	for _, n := range r.nodes {
		if got := readU64(n, q, 8, 0); got != 5 {
			t.Fatalf("node %d reads %d after node 2's store, want 5", n.ID(), got)
		}
	}
	if d := msgs(r) - before; d != 0 {
		t.Fatalf("reads after the store sent %d messages, want 0", d)
	}
}

// TestOwnStoreBesideAFetchIsKept: node 1's replica is being fetched
// when its own store runs; the home serves the fetch first, but the
// store's reply is settled first. The store must not be lost from the
// replica: the install applies it after the fetched snapshot, and a
// later refresh from the home finds no gap.
func TestOwnStoreBesideAFetchIsKept(t *testing.T) {
	stored := false
	var r *rig
	q := duq.New()
	setHook(t, &testHookFetched, func() {
		if !stored {
			stored = true
			r.nodes[1].Write(q, 8, 0, u64bytes(7))
		}
	})
	r = newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	opts.ForceReplicated = true
	r.alloc(8, "rm", 16, ReadMostly, opts, nil)
	readU64(r.nodes[1], q, 8, 0) // the fetch; its hook stores 7
	r.nodes[0].Write(q, 8, 8, u64bytes(9))
	if a, b := readU64(r.nodes[1], q, 8, 0), readU64(r.nodes[1], q, 8, 8); a != 7 || b != 9 {
		t.Fatalf("node 1 reads %d, %d, want 7, 9", a, b)
	}
	if got := r.nodes[1].C.Get("apply.gap"); got != 0 {
		t.Fatalf("apply.gap = %d at node 1, want 0", got)
	}
}

// TestConcurrentRemoteStoresConverge: nodes 1 and 2 store to the same
// bytes of a replicated read-mostly object at once. Node 1's store is
// in the home copy first but is stamped second, after node 2's has been
// stamped and relayed; the home copy must end with the store stamped
// last, as node 3's replica does.
func TestConcurrentRemoteStoresConverge(t *testing.T) {
	applied, resume := make(chan struct{}), make(chan struct{})
	setHook(t, &testHookRemoteStoreApplied, func(from msg.NodeID) {
		if from == 1 {
			close(applied)
			<-resume
		}
	})
	r := newRig(t, 4)
	opts := DefaultOptions()
	opts.Home = 0
	opts.ForceReplicated = true
	r.alloc(8, "rm", 8, ReadMostly, opts, nil)
	readU64(r.nodes[3], duq.New(), 8, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.nodes[1].Write(duq.New(), 8, 0, u64bytes(1))
	}()
	<-applied
	r.nodes[2].Write(duq.New(), 8, 0, u64bytes(2))
	close(resume)
	<-done
	if h, c := readU64(r.nodes[0], duq.New(), 8, 0), readU64(r.nodes[3], duq.New(), 8, 0); h != 1 || c != 1 {
		t.Fatalf("the home reads %d and node 3's replica %d, want node 1's 1 (stamped last) at both", h, c)
	}
}

func TestReadMostlyInvalidateModeDropsCopies(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Dynamic = true
	opts.Update = Invalidate
	r.alloc(8, "rm", 8, ReadMostly, opts, u64bytes(1))
	q := duq.New()
	for i := 0; i < 64; i++ {
		_ = readU64(r.nodes[1], q, 8, 0)
	}
	// After the switch, node 1 caches; a write invalidates, so the next
	// read refetches and still sees the new value.
	r.nodes[0].Write(q, 8, 0, u64bytes(9))
	deadline := time.Now().Add(2 * time.Second)
	for readU64(r.nodes[1], q, 8, 0) != 9 {
		if time.Now().After(deadline) {
			t.Fatal("invalidate-mode copy stuck on stale value")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------
// Private

func TestPrivateIsNodeLocal(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(4, "priv", 8, Private, DefaultOptions(), u64bytes(50))
	q := duq.New()
	r.nodes[0].Write(q, 4, 0, u64bytes(60))
	// Node 1's private copy is untouched.
	if got := readU64(r.nodes[1], q, 4, 0); got != 50 {
		t.Fatalf("node 1 private = %d, want 50", got)
	}
	before := msgs(r)
	for i := 0; i < 10; i++ {
		r.nodes[0].Write(q, 4, 0, u64bytes(uint64(i)))
		_ = readU64(r.nodes[1], q, 4, 0)
	}
	if msgs(r) != before {
		t.Fatal("private object accesses sent messages")
	}
}

// ---------------------------------------------------------------------
// Cross-cutting

func TestAllocRejectsBadMeta(t *testing.T) {
	r := newRig(t, 1)
	for _, tc := range []struct {
		name string
		meta Meta
		init []byte
	}{
		{"zero size", Meta{ID: 1, Size: 0}, nil},
		{"init mismatch", Meta{ID: 1, Size: 4}, []byte{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			r.nodes[0].Alloc(tc.meta, tc.init)
		}()
	}
}

func TestAccessUnallocatedPanics(t *testing.T) {
	r := newRig(t, 1)
	q := duq.New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.nodes[0].Read(q, 99, 0, make([]byte, 1))
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	r := newRig(t, 1)
	r.alloc(1, "x", 8, Conventional, DefaultOptions(), nil)
	q := duq.New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.nodes[0].Read(q, 1, 4, make([]byte, 8))
}

func TestAnnotationAndModeStrings(t *testing.T) {
	if WriteMany.String() != "write-many" || Conventional.String() != "conventional" {
		t.Fatal("annotation names wrong")
	}
	if Annotation(99).String() == "" {
		t.Fatal("unknown annotation empty")
	}
	if Refresh.String() != "refresh" || Invalidate.String() != "invalidate" {
		t.Fatal("update mode names wrong")
	}
	if Invalid.String() != "invalid" || Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatal("copy state names wrong")
	}
}

func TestMetaRoundTripThroughAlloc(t *testing.T) {
	meta := Meta{ID: 3, Name: "roundtrip", Size: 4, Annot: Migratory,
		Opts: Options{Home: 1, Lock: 9, Update: Invalidate, Dynamic: true,
			Engine: EngineDirectory}}
	init := []byte{1, 2, 3, 4}
	gotMeta, gotInit, err := decodeAlloc(encodeAlloc(meta, init))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: %+v vs %+v", gotMeta, meta)
	}
	if string(gotInit) != string(init) {
		t.Fatalf("init round trip: %v", gotInit)
	}
}

// TestObjTableConcurrentInstall: lookups take no lock, so a reader must
// see either nil or the installed object — never a torn table — while
// installs fill cells and republish rehashed, larger tables, for dense
// IDs and for a sparse range like Ivy's pages at 1<<20.
func TestObjTableConcurrentInstall(t *testing.T) {
	const dense, sparseBase, sparse = 3000, 1 << 20, 100
	var tab objTable
	ids := make([]memory.ObjectID, 0, dense+sparse)
	for i := 1; i <= dense; i++ {
		ids = append(ids, memory.ObjectID(i))
	}
	for i := 0; i < sparse; i++ {
		ids = append(ids, memory.ObjectID(sparseBase+i))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, id := range ids {
					if o := tab.get(id); o != nil && o.meta.ID != id {
						t.Errorf("get(%d) returned object %d", id, o.meta.ID)
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, id := range ids {
		tab.put(&Obj{meta: Meta{ID: id}})
	}
	close(done)
	wg.Wait()

	for _, id := range ids {
		if o := tab.get(id); o == nil || o.meta.ID != id {
			t.Fatalf("get(%d) = %v after install", id, o)
		}
	}
	for _, id := range []memory.ObjectID{0, dense + 1, sparseBase - 1, sparseBase + sparse, 1<<32 - 1} {
		if o := tab.get(id); o != nil {
			t.Fatalf("get(%d) = object %d, want nil", id, o.meta.ID)
		}
	}
	// A second install under one ID replaces the first and is not counted twice.
	again := &Obj{meta: Meta{ID: ids[0]}}
	tab.put(again)
	if tab.get(ids[0]) != again || tab.n != len(ids) {
		t.Fatalf("re-install: get = %p want %p, n = %d want %d", tab.get(ids[0]), again, tab.n, len(ids))
	}
	seen := map[memory.ObjectID]int{}
	tab.each(func(o *Obj) { seen[o.meta.ID]++ })
	if len(seen) != len(ids) {
		t.Fatalf("each visited %d distinct objects, want %d", len(seen), len(ids))
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("each visited object %d %d times", id, k)
		}
	}
	if cells := *tab.cells.Load(); 2*len(ids) > len(cells) || len(cells) > 8*len(ids) {
		t.Fatalf("%d objects in %d cells: want at most half full and no more than 8x", len(ids), len(cells))
	}
}
