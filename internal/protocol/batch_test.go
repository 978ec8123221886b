package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
)

// TestBatchedFlushIsO1PerHome is the headline property of the batched
// flush pipeline: flushing K dirty write-many objects homed on one
// remote node costs one batch message plus one acknowledgment, not the
// 2K round trips the serial path pays.
func TestBatchedFlushIsO1PerHome(t *testing.T) {
	const K = 8
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	for i := 1; i <= K; i++ {
		r.alloc(memory.ObjectID(i), fmt.Sprintf("wm%d", i), 8, WriteMany, opts, nil)
	}
	q := duq.New()
	for i := 1; i <= K; i++ {
		r.nodes[1].Write(q, memory.ObjectID(i), 0, u64bytes(uint64(i)*10))
	}
	before := msgs(r)
	r.nodes[1].FlushQueue(q)
	if sent := msgs(r) - before; sent != 2 {
		t.Fatalf("batched flush of %d objects sent %d messages, want 2 (batch + ack)", K, sent)
	}
	if got := r.nodes[1].C.Get("batch.sent"); got != 1 {
		t.Fatalf("batch.sent = %d, want 1", got)
	}
	if got := r.nodes[1].C.Get("batch.objs"); got != K {
		t.Fatalf("batch.objs = %d, want %d", got, K)
	}
	if got := r.nodes[1].C.Get("diff.sent"); got != K {
		t.Fatalf("diff.sent = %d, want %d (one combined diff per object)", got, K)
	}
	// The home merged every entry.
	for i := 1; i <= K; i++ {
		if got := readU64(r.nodes[0], q, memory.ObjectID(i), 0); got != uint64(i)*10 {
			t.Fatalf("home object %d = %d, want %d", i, got, i*10)
		}
	}
}

// TestSerialFlushCosts2KPerHome pins down the "before" side of the
// comparison: a program that flushes after every write pays one round
// trip per dirty object — on the same flush path, as K batches of one.
func TestSerialFlushCosts2KPerHome(t *testing.T) {
	const K = 8
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	for i := 1; i <= K; i++ {
		r.alloc(memory.ObjectID(i), fmt.Sprintf("wm%d", i), 8, WriteMany, opts, nil)
	}
	q := duq.New()
	for i := 1; i <= K; i++ {
		readU64(r.nodes[1], q, memory.ObjectID(i), 0) // prime: the writes below do not fault
	}
	before := msgs(r)
	for i := 1; i <= K; i++ {
		r.nodes[1].Write(q, memory.ObjectID(i), 0, u64bytes(uint64(i)))
		r.nodes[1].FlushQueue(q)
	}
	if sent := msgs(r) - before; sent != 2*K {
		t.Fatalf("flush-per-write of %d objects sent %d messages, want %d", K, sent, 2*K)
	}
	if sent, objs := r.nodes[1].C.Get("batch.sent"), r.nodes[1].C.Get("batch.objs"); sent != K || objs != K {
		t.Fatalf("batch.sent = %d, batch.objs = %d, want %d batches of one", sent, objs, K)
	}
}

// TestBatchOfOneWireSize pins what a one-object flush costs on the
// wire now that it rides the batch message: 2 messages, the request
// carrying the count word and the entry's length prefix on top of the
// object ID and spans (5–7 bytes more than a bare single-object diff
// would be), the reply a count word ahead of the sequence number (4
// more).
func TestBatchOfOneWireSize(t *testing.T) {
	r := newRig(t, 2)
	r.alloc(2, "wm", 8, WriteMany, DefaultOptions(), nil) // home = node 0
	q := duq.New()
	r.nodes[1].Write(q, 2, 0, u64bytes(7))
	st := r.c.Stats()
	beforeM, beforeB := st.Messages(), st.Bytes()
	r.nodes[1].FlushQueue(q)
	if sent := st.Messages() - beforeM; sent != 2 {
		t.Fatalf("single-object flush sent %d messages, want 2", sent)
	}
	// Only the low byte changed: one span of one byte at offset 7.
	entry := 4 + memory.EncodedSpansSize([]memory.Span{{Off: 7, Data: []byte{7}}})
	request := 4 + msg.UvarintLen(uint64(entry)) + entry
	reply := 4 + 8
	if got, want := st.Bytes()-beforeB, int64(2*msg.HeaderSize+request+reply); got != want {
		t.Fatalf("single-object flush moved %d bytes, want %d (request payload %d, reply payload %d)",
			got, want, request, reply)
	}
	if got := r.nodes[1].C.Get("batch.bytes"); got != int64(request) {
		t.Fatalf("batch.bytes = %d, want the request payload %d", got, request)
	}
	if got := readU64(r.nodes[0], q, 2, 0); got != 7 {
		t.Fatalf("home = %d, want 7", got)
	}
}

// TestBatchedFlushPipelinesAcrossHomes: objects homed on different
// nodes flush concurrently, and the flush still returns only after
// every home acknowledged (contents are immediately visible there).
func TestBatchedFlushPipelinesAcrossHomes(t *testing.T) {
	r := newRig(t, 3)
	optsA, optsB := DefaultOptions(), DefaultOptions()
	optsA.Home = 1
	optsB.Home = 2
	r.alloc(1, "a1", 8, WriteMany, optsA, nil)
	r.alloc(2, "a2", 8, WriteMany, optsA, nil)
	r.alloc(3, "b1", 8, WriteMany, optsB, nil)
	q := duq.New()
	r.nodes[0].Write(q, 1, 0, u64bytes(11))
	r.nodes[0].Write(q, 2, 0, u64bytes(22))
	r.nodes[0].Write(q, 3, 0, u64bytes(33))
	r.nodes[0].FlushQueue(q)
	if got := r.nodes[0].C.Get("flush.pipelined"); got != 1 {
		t.Fatalf("flush.pipelined = %d, want 1", got)
	}
	// Acked flush: the homes hold the merged values synchronously.
	if got := readU64(r.nodes[1], q, 1, 0); got != 11 {
		t.Fatalf("home 1 object 1 = %d", got)
	}
	if got := readU64(r.nodes[1], q, 2, 0); got != 22 {
		t.Fatalf("home 1 object 2 = %d", got)
	}
	if got := readU64(r.nodes[2], q, 3, 0); got != 33 {
		t.Fatalf("home 2 object 3 = %d", got)
	}
}

// TestBatchedPushGroupsProducerConsumer: two producer-consumer objects
// with the same consumer set ride one multicast (plus one ack) when
// flushed together, and the consumer still sees sequenced updates.
func TestBatchedPushGroupsProducerConsumer(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(1, "pcA", 8, ProducerConsumer, opts, nil)
	r.alloc(2, "pcB", 8, ProducerConsumer, opts, nil)
	qp, qc := duq.New(), duq.New()
	// Consumer on node 1 registers for both.
	_ = readU64(r.nodes[1], qc, 1, 0)
	_ = readU64(r.nodes[1], qc, 2, 0)

	// Producer is the home (node 0): first flush registers it, so prime
	// that registration before measuring.
	r.nodes[0].Write(qp, 1, 0, u64bytes(1))
	r.nodes[0].Write(qp, 2, 0, u64bytes(1))
	r.nodes[0].FlushQueue(qp)

	r.nodes[0].Write(qp, 1, 0, u64bytes(5))
	r.nodes[0].Write(qp, 2, 0, u64bytes(6))
	before := msgs(r)
	r.nodes[0].FlushQueue(qp)
	if sent := msgs(r) - before; sent != 2 {
		t.Fatalf("batched producer push sent %d messages, want 2 (multicast + ack)", sent)
	}
	// The push is acknowledged, so the consumer's copy is already fresh.
	if got := readU64(r.nodes[1], qc, 1, 0); got != 5 {
		t.Fatalf("consumer object 1 = %d, want 5", got)
	}
	if got := readU64(r.nodes[1], qc, 2, 0); got != 6 {
		t.Fatalf("consumer object 2 = %d, want 6", got)
	}
	// No extra consumer stalls beyond the two registrations.
	if got := r.nodes[1].C.Get("consumer.stall"); got != 2 {
		t.Fatalf("consumer stalls = %d, want 2", got)
	}
}

// TestBatchedFlushPerReceiverOrdering is the §3.2 ordering stress: a
// writer updates K objects in program order and flushes; a remote
// reader scanning the objects in reverse program order must never
// observe a later object's update while missing an earlier one —
// i.e. the observed values must be non-increasing along program order
// reversed. Run with -race.
func TestBatchedFlushPerReceiverOrdering(t *testing.T) {
	const (
		K      = 6
		rounds = 50
	)
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 0
	for i := 1; i <= K; i++ {
		r.alloc(memory.ObjectID(i), fmt.Sprintf("ord%d", i), 8, WriteMany, opts, nil)
	}
	// Readers join every copyset before the writer starts, so relays
	// reach them from the first flush on.
	qr := make([]*duq.Queue, 3)
	for n := 1; n <= 2; n++ {
		qr[n] = duq.New()
		for i := 1; i <= K; i++ {
			_ = readU64(r.nodes[n], qr[n], memory.ObjectID(i), 0)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := duq.New()
		for i := uint64(1); i <= rounds; i++ {
			for obj := 1; obj <= K; obj++ {
				r.nodes[1].Write(q, memory.ObjectID(obj), 0, u64bytes(i))
			}
			r.nodes[1].FlushQueue(q)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := qr[2]
		deadline := time.Now().Add(10 * time.Second)
		for {
			// Scan in reverse program order: the writer updates object
			// j before object j+1, so at any instant v(j) >= v(j+1),
			// and v(j) is read after v(j+1) (values only grow). An
			// earlier object observed at an older round than a later
			// object means the reader saw a later update while missing
			// an earlier one — the §3.2 violation.
			prev := uint64(0)
			for obj := K; obj >= 1; obj-- {
				v := readU64(r.nodes[2], q, memory.ObjectID(obj), 0)
				if v < prev {
					errs <- fmt.Sprintf("object %d still at round %d while object %d already at %d",
						obj, v, obj+1, prev)
					return
				}
				prev = v
			}
			if readU64(r.nodes[2], q, 1, 0) == rounds {
				return
			}
			if time.Now().After(deadline) {
				errs <- fmt.Sprintf("reader stuck: object 1 at %d", readU64(r.nodes[2], q, 1, 0))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBatchedFlushConcurrentWritersConverge: several nodes batch-flush
// disjoint slots of the same object set concurrently; the homes must
// end up with every update merged (differential check against the
// writers' own values).
func TestBatchedFlushConcurrentWritersConverge(t *testing.T) {
	const (
		K     = 4
		nodes = 4
	)
	r := newRig(t, nodes)
	for i := 1; i <= K; i++ {
		r.alloc(memory.ObjectID(i), fmt.Sprintf("cw%d", i), nodes*8, WriteMany, DefaultOptions(), nil)
	}
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			q := duq.New()
			for round := 1; round <= 10; round++ {
				for i := 1; i <= K; i++ {
					r.nodes[node].Write(q, memory.ObjectID(i), node*8, u64bytes(uint64(100*node+round)))
				}
				r.nodes[node].FlushQueue(q)
			}
		}(node)
	}
	wg.Wait()
	q := duq.New()
	for i := 1; i <= K; i++ {
		home := r.nodes[int(i)%nodes] // cluster.HomeOf for default placement
		for node := 0; node < nodes; node++ {
			if got := readU64(home, q, memory.ObjectID(i), node*8); got != uint64(100*node+10) {
				t.Fatalf("object %d slot %d = %d, want %d", i, node, got, 100*node+10)
			}
		}
	}
}

// TestBatchedAndSerialFlushAgree runs the same multi-object workload
// as a program that flushes once per round and as one that flushes
// after every write, and checks both against the expected home bytes
// and combined-update count computed in plain Go.
func TestBatchedAndSerialFlushAgree(t *testing.T) {
	const (
		K      = 5
		size   = 16
		rounds = 3
	)
	// The program: in round r every object i gets value r*K+i at word
	// r%2. Every write changes its word, so each round sends K diffs.
	slot := func(round int) int { return (round % 2) * 8 }
	value := func(round, i int) uint64 { return uint64(round*K + i) }
	want := make([][]byte, K+1)
	for i := 1; i <= K; i++ {
		want[i] = make([]byte, size)
		for round := 0; round < rounds; round++ {
			copy(want[i][slot(round):], u64bytes(value(round, i)))
		}
	}

	for _, flushPerWrite := range []bool{false, true} {
		r := newRig(t, 2)
		opts := DefaultOptions()
		opts.Home = 0
		for i := 1; i <= K; i++ {
			r.alloc(memory.ObjectID(i), fmt.Sprintf("d%d", i), size, WriteMany, opts, nil)
		}
		q := duq.New()
		for round := 0; round < rounds; round++ {
			for i := 1; i <= K; i++ {
				r.nodes[1].Write(q, memory.ObjectID(i), slot(round), u64bytes(value(round, i)))
				if flushPerWrite {
					r.nodes[1].FlushQueue(q)
				}
			}
			r.nodes[1].FlushQueue(q)
		}
		got := make([]byte, size)
		for i := 1; i <= K; i++ {
			r.nodes[0].Read(q, memory.ObjectID(i), 0, got)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("flush per write %v: home object %d = %x, want %x", flushPerWrite, i, got, want[i])
			}
		}
		if diffs := r.nodes[1].C.Get("diff.sent"); diffs != rounds*K {
			t.Fatalf("flush per write %v: %d combined updates, want %d", flushPerWrite, diffs, rounds*K)
		}
	}
}

// TestMalformedBatchIsCountedAndChangesNothing feeds damaged
// kindDiffBatch and kindApplyBatch payloads through dispatch: each is
// one counted drop, never a panic, and — because a batch is decoded
// whole before anything is merged or installed — leaves every object
// byte and sequence number as it was, even when the damage sits behind
// entries that decode cleanly.
func TestMalformedBatchIsCountedAndChangesNothing(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(1, "a", 8, WriteMany, opts, nil)
	r.alloc(2, "b", 8, WriteMany, opts, nil)
	q := duq.New()
	for id := memory.ObjectID(1); id <= 2; id++ {
		readU64(r.nodes[1], q, id, 0) // node 1 holds valid copies at sequence 0
	}

	spans := []memory.Span{{Off: 0, Data: []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE}}}
	wb := encodeDiffBatch([]batchEntry{{id: 1, spans: spans}, {id: 2, spans: spans}})
	diff := append([]byte(nil), wb.B[msg.HeaderSize:]...)
	wb.Release()
	// Sequence 1 is the next in order at node 1: intact, both entries
	// would install.
	apply := encodeApplyBatch([]applyEntry{{id: 1, seq: 1, spans: spans}, {id: 2, seq: 1, spans: spans}})

	// damage returns the ways a two-entry payload arrives broken.
	damage := func(p []byte) map[string][]byte {
		overCount := append([]byte(nil), p...)
		binary.BigEndian.PutUint32(overCount, 3) // plausible for the length, but only two entries follow
		hugeCount := append([]byte(nil), p...)
		binary.BigEndian.PutUint32(hugeCount, 1<<31)
		return map[string][]byte{
			"empty":                  nil,
			"short count word":       p[:3],
			"count beyond payload":   hugeCount,
			"count beyond entries":   overCount,
			"second entry truncated": p[:len(p)-3],
			"second entry missing":   p[:4+(len(p)-4)/2],
		}
	}
	cases := []struct {
		kind    msg.Kind
		at      *Node // receiver: the home for diffs, the copy holder for refreshes
		from    msg.NodeID
		payload []byte
	}{
		{kindDiffBatch, r.nodes[0], 1, diff},
		{kindApplyBatch, r.nodes[1], 0, apply},
	}
	snapshot := func(n *Node) (state [2][8]byte, seqs [2]uint64) {
		for i := range state {
			o := n.mustObj(memory.ObjectID(i + 1))
			o.mu.Lock()
			copy(state[i][:], o.data)
			seqs[i] = o.applySeq
			o.mu.Unlock()
		}
		return state, seqs
	}
	for _, c := range cases {
		for name, p := range damage(c.payload) {
			beforeData, beforeSeqs := snapshot(c.at)
			drops := c.at.C.Get("drop.malformed")
			c.at.dispatch(c.at.k, &msg.Msg{Kind: c.kind, From: c.from, To: c.at.id, Seq: 1 << 40, Payload: p})
			if got := c.at.C.Get("drop.malformed") - drops; got != 1 {
				t.Errorf("kind %#x, %s: drop.malformed moved by %d, want 1", c.kind, name, got)
			}
			if afterData, afterSeqs := snapshot(c.at); afterData != beforeData || afterSeqs != beforeSeqs {
				t.Errorf("kind %#x, %s: a dropped batch changed objects: %x seqs %v -> %x seqs %v",
					c.kind, name, beforeData, beforeSeqs, afterData, afterSeqs)
			}
		}
	}
}
