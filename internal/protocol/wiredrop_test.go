package protocol

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"munin/internal/bufpool"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/stats"
)

// A message a peer sends is input, not a local program's bug: whatever
// it names, the member counts a drop and goes on serving. Each case is
// sent from node 1 to node 0 over the rig's transport, so a handler that
// panicked would take the test binary with it, and every case ends with
// the pooled-buffer count balanced: a drop path that built a reply and
// returned without sending or releasing it fails the case.
func TestWireInputIsDroppedNotFatal(t *testing.T) {
	init := pattern(16, 3)
	cases := []struct {
		name    string
		kind    msg.Kind
		payload []byte
		counter string
	}{
		{"kindInv for an object never allocated", kindInv,
			msg.NewBuilder(4).U32(999).Bytes(), "drop.unknown_object"},
		{"kindRemWrite at offset 1<<20 of a 16-byte object", kindRemWrite,
			msg.NewBuilder(32).U32(2).Int(1 << 20).BytesN([]byte{0xff}).Bytes(), "drop.malformed"},
		{"kindRemRead past the end", kindRemRead,
			msg.NewBuilder(32).U32(2).Int(8).Int(9).Bytes(), "drop.malformed"},
		{"kindRemRead with a length that overflows", kindRemRead,
			msg.NewBuilder(32).U32(2).Int(8).Int(1<<62 + 1<<61).Bytes(), "drop.malformed"},
		{"kindRemWrite at a negative offset", kindRemWrite,
			msg.NewBuilder(32).U32(2).Int(-1).BytesN([]byte{0xff}).Bytes(), "drop.malformed"},
		{"kindRemWrite for an object never allocated", kindRemWrite,
			msg.NewBuilder(32).U32(999).Int(0).BytesN([]byte{0xff}).Bytes(), "drop.unknown_object"},
		{"kindAlloc with a truncated payload", kindAlloc,
			msg.NewBuilder(8).U32(7).U8(3).Bytes(), "drop.malformed"},
		{"kindLeaseWrite at offset 1<<20 of a 16-byte lease object", kindLeaseWrite,
			msg.NewBuilder(32).U32(3).Int(1 << 20).BytesN([]byte{0xff}).Bytes(), "drop.malformed"},
		{"kindConsUpd with a consumer count the payload cannot hold", kindConsUpd,
			msg.NewBuilder(16).U32(2).U32(1<<32 - 1).U32(1).Bytes(), "drop.malformed"},
		{"kindDiffBatch with a span past the end of a 16-byte object", kindDiffBatch,
			msg.NewBuilder(32).U32(1).Entry(func(e *msg.Builder) {
				e.U32(2)
				memory.EncodeSpans(e, []memory.Span{{Off: 12, Data: []byte{1, 2, 3, 4, 5}}})
			}).Bytes(), "drop.malformed"},
		{"kindApplyBatch with a span at offset 1<<31 of a 16-byte object", kindApplyBatch,
			encodeApplyBatch([]applyEntry{{id: 2, seq: 1, spans: []memory.Span{{Off: 1 << 31, Data: []byte{0xff}}}}}),
			"drop.malformed"},
		{"kindWriteOwn for a read-mostly object", kindWriteOwn,
			msg.NewBuilder(8).U32(2).Bool(true).Bytes(), "drop.misdirected"},
		{"kindFwdWrite for a read-mostly object", kindFwdWrite,
			msg.NewBuilder(16).U32(2).U32(0).Bool(false).Bytes(), "drop.misdirected"},
		{"kindFwdRead for a read-mostly object", kindFwdRead,
			msg.NewBuilder(8).U32(2).U32(0).Bytes(), "drop.misdirected"},
		{"kindRegCons as producer of an object the home produces", kindRegCons,
			msg.NewBuilder(8).U32(4).Bool(true).Bytes(), "producer.refused"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bufpool.CheckBalance(t)
			r := newRig(t, 2)
			opts := DefaultOptions()
			opts.Home = 0
			r.alloc(2, "rm", len(init), ReadMostly, opts, init)
			r.alloc(4, "pc", len(init), ProducerConsumer, opts, init)
			home := r.nodes[0]
			home.becomeProducer(home.mustObj(4))
			opts.Engine = EngineLease
			r.alloc(3, "lease", len(init), ReadMostly, opts, init)
			before := home.C.Snapshot()
			if err := r.nodes[1].k.Send(0, tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); home.C.Get(tc.counter) == before[tc.counter]; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never counted", tc.counter)
				}
			}
			after := home.C.Snapshot()
			for _, name := range []string{"drop.unknown_object", "drop.malformed", "drop.misdirected", "producer.refused", "home.remread", "home.remwrite", stats.CInvReceived, "lease.bumps"} {
				want := before[name]
				if name == tc.counter {
					want++
				}
				if after[name] != want {
					t.Errorf("%s moved from %d to %d, want %d", name, before[name], after[name], want)
				}
			}
			// The member still serves its objects, locally and to the
			// peer, with the bytes it had.
			got := make([]byte, len(init))
			for _, id := range []memory.ObjectID{2, 3} {
				for _, n := range r.nodes {
					n.Read(duq.New(), id, 0, got)
					if !bytes.Equal(got, init) {
						t.Errorf("node %d reads %x from object %d after the drop, want %x", n.ID(), got, id, init)
					}
				}
			}
		})
	}
}

// TestUndeclaredKindIsUnhandled: a kind inside the coherence or lock
// service's range that neither declares is not registered, so the
// kernel counts it (drop.unhandled) instead of a service swallowing it
// with nothing counted while a caller waits for the reply.
func TestUndeclaredKindIsUnhandled(t *testing.T) {
	r := newRig(t, 2)
	k := r.c.Kernel(0)
	for i, kind := range []msg.Kind{msg.KindCohBase + 0x1f, msg.KindLockBase + 0x0f} {
		if err := r.c.Kernel(1).Send(0, kind, msg.NewBuilder(4).U32(2).Bytes()); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); k.C.Get("drop.unhandled") != int64(i+1); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("kind %#x: drop.unhandled reads %d, want %d", uint16(kind), k.C.Get("drop.unhandled"), i+1)
			}
		}
	}
}

// TestSecondProducerPanicsOnlyItsThread: a node that writes a
// producer-consumer object another node already produces is refused by
// the home, which counts the refusal and keeps serving the object; the
// writing thread panics with the two producing nodes named.
func TestSecondProducerPanicsOnlyItsThread(t *testing.T) {
	r := newRig(t, 2)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(7, "pc", 8, ProducerConsumer, opts, nil)
	q0 := duq.New()
	r.nodes[0].Write(q0, 7, 0, u64bytes(1))
	r.nodes[0].FlushQueue(q0)

	func() {
		defer func() {
			got := fmt.Sprint(recover())
			if want := `"pc" has two producing nodes (0 and 1)`; !strings.Contains(got, want) {
				t.Fatalf("second producer's panic = %q, want one mentioning %q", got, want)
			}
		}()
		r.nodes[1].Write(duq.New(), 7, 0, u64bytes(99))
	}()
	if got := r.nodes[0].C.Get("producer.refused"); got != 1 {
		t.Fatalf("%s = %d at the home, want 1", "producer.refused", got)
	}

	// The home still serves the object: node 1 registers as a consumer
	// and reads the producer's value, then its next one.
	q1 := duq.New()
	if got := readU64(r.nodes[1], q1, 7, 0); got != 1 {
		t.Fatalf("consumer reads %d, want 1", got)
	}
	r.nodes[0].Write(q0, 7, 0, u64bytes(2))
	r.nodes[0].FlushQueue(q0)
	if got := readU64(r.nodes[1], q1, 7, 0); got != 2 {
		t.Fatalf("consumer reads %d after the next push, want 2", got)
	}
}

// TestCarriedPushIsDroppedNotFatal: a carrier's arrival that carries
// producer-consumer pushes is input too. The barrier's home checks every
// push as the arrival comes in, and one that fails is dropped with its
// arrival: one counted drop.* at the protocol layer and one
// dlock.drop_malformed, no parked waiter released, and no byte of any
// copy changed. The next good arrival completes the epoch.
func TestCarriedPushIsDroppedNotFatal(t *testing.T) {
	init := pattern(16, 5)
	// part is a carried part with no write-many entries and one push of
	// object id at sequence 1, claiming count members and listing
	// members, then the spans.
	part := func(id uint32, count int, members []uint32, spans []memory.Span) []byte {
		b := msg.NewBuilder(64).U32(0).U32(1)
		b.Entry(func(e *msg.Builder) {
			e.U32(id).U64(1).U32(uint32(count))
			for _, m := range members {
				e.U32(m)
			}
			if spans != nil {
				memory.EncodeSpans(e, spans)
			}
		})
		return b.Bytes()
	}
	one := []memory.Span{{Off: 0, Data: []byte{0xee}}}
	cases := []struct {
		name    string
		part    []byte
		counter string
	}{
		{"a push naming an object that is not producer-consumer", part(2, 1, []uint32{0}, one), "drop.misdirected"},
		{"a push with a span past the end of its object", part(4, 1, []uint32{0}, []memory.Span{{Off: 12, Data: []byte{1, 2, 3, 4, 5}}}), "drop.malformed"},
		{"a push to a member at the node count", part(4, 1, []uint32{3}, one), "drop.malformed"},
		{"a push that lists its sender as a member", part(4, 2, []uint32{0, 1}, one), "drop.malformed"},
		{"a push whose member list is truncated", part(4, 5, []uint32{0, 2}, nil), "drop.malformed"},
		{"a push whose members repeat", part(4, 2, []uint32{2, 2}, one), "drop.malformed"},
		{"a push naming an object never allocated", part(999, 1, []uint32{0}, one), "drop.unknown_object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3)
			opts := DefaultOptions()
			opts.Home = 0
			r.alloc(2, "wm", len(init), WriteMany, opts, init)
			r.alloc(4, "pc", len(init), ProducerConsumer, opts, init)
			// Barrier 0 is homed on node 0; node 2's plain arrival parks
			// there.
			released := make(chan struct{})
			go func() {
				r.locks[2].BarrierWait(0, 2)
				close(released)
			}()
			for deadline := time.Now().Add(10 * time.Second); r.locks[0].BarrierArrived(0) != 1; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("node 2's arrival never parked")
				}
			}
			home, k := r.nodes[0], r.c.Kernel(0)
			before, kbefore := home.C.Snapshot(), k.C.Get("dlock.drop_malformed")
			// The dropped arrival is never answered: its call fails when
			// the rig closes.
			go r.locks[1].BarrierCarry(0, 2, dlock.Carry{Size: len(tc.part), Write: func(b *msg.Builder) { b.Raw(tc.part) }})
			for deadline := time.Now().Add(10 * time.Second); k.C.Get("dlock.drop_malformed") == kbefore; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("dlock.drop_malformed never counted")
				}
			}
			after := home.C.Snapshot()
			for _, name := range []string{"drop.unknown_object", "drop.malformed", "drop.misdirected", "apply.received"} {
				want := before[name]
				if name == tc.counter {
					want++
				}
				if after[name] != want {
					t.Errorf("%s moved from %d to %d, want %d", name, before[name], after[name], want)
				}
			}
			if got := k.C.Get("dlock.drop_malformed"); got != kbefore+1 {
				t.Errorf("dlock.drop_malformed moved by %d, want 1", got-kbefore)
			}
			select {
			case <-released:
				t.Fatal("the dropped arrival released the parked waiter")
			case <-time.After(20 * time.Millisecond):
			}
			r.locks[1].BarrierWait(0, 2)
			select {
			case <-released:
			case <-time.After(10 * time.Second):
				t.Fatal("the good arrival did not complete the epoch")
			}
			got := make([]byte, len(init))
			for _, id := range []memory.ObjectID{2, 4} {
				home.Read(duq.New(), id, 0, got)
				if !bytes.Equal(got, init) {
					t.Errorf("the home reads %x from object %d after the drop, want %x", got, id, init)
				}
			}
		})
	}
}
