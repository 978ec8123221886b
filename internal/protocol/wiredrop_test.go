package protocol

import (
	"bytes"
	"testing"
	"time"

	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/stats"
)

// A message a peer sends is input, not a local program's bug: whatever
// it names, the member counts a drop and goes on serving. Each case is
// sent from node 1 to node 0 over the rig's transport, so a handler that
// panicked would take the test binary with it.
func TestWireInputIsDroppedNotFatal(t *testing.T) {
	init := pattern(16, 3)
	cases := []struct {
		name    string
		kind    msg.Kind
		payload []byte
		counter string
	}{
		{"kindInv for an object never allocated", kindInv,
			msg.NewBuilder(4).U32(999).Bytes(), stats.CDropUnknownObject},
		{"kindRemWrite at offset 1<<20 of a 16-byte object", kindRemWrite,
			msg.NewBuilder(32).U32(2).Int(1 << 20).BytesN([]byte{0xff}).Bytes(), stats.CDropMalformed},
		{"kindRemRead past the end", kindRemRead,
			msg.NewBuilder(32).U32(2).Int(8).Int(9).Bytes(), stats.CDropMalformed},
		{"kindRemRead with a length that overflows", kindRemRead,
			msg.NewBuilder(32).U32(2).Int(8).Int(1<<62 + 1<<61).Bytes(), stats.CDropMalformed},
		{"kindRemWrite at a negative offset", kindRemWrite,
			msg.NewBuilder(32).U32(2).Int(-1).BytesN([]byte{0xff}).Bytes(), stats.CDropMalformed},
		{"kindRemWrite for an object never allocated", kindRemWrite,
			msg.NewBuilder(32).U32(999).Int(0).BytesN([]byte{0xff}).Bytes(), stats.CDropUnknownObject},
		{"kindAlloc with a truncated payload", kindAlloc,
			msg.NewBuilder(8).U32(7).U8(3).Bytes(), stats.CDropMalformed},
		{"kindLeaseWrite at offset 1<<20 of a 16-byte lease object", kindLeaseWrite,
			msg.NewBuilder(32).U32(3).Int(1 << 20).BytesN([]byte{0xff}).Bytes(), stats.CDropMalformed},
		{"kindConsUpd with a consumer count the payload cannot hold", kindConsUpd,
			msg.NewBuilder(16).U32(2).U32(1<<32 - 1).U32(1).Bytes(), stats.CDropMalformed},
		{"kindDiffBatch with a span past the end of a 16-byte object", kindDiffBatch,
			msg.NewBuilder(32).U32(1).Entry(func(e *msg.Builder) {
				e.U32(2)
				memory.EncodeSpans(e, []memory.Span{{Off: 12, Data: []byte{1, 2, 3, 4, 5}}})
			}).Bytes(), stats.CDropMalformed},
		{"kindApplyBatch with a span at offset 1<<31 of a 16-byte object", kindApplyBatch,
			encodeApplyBatch([]applyEntry{{id: 2, seq: 1, spans: []memory.Span{{Off: 1 << 31, Data: []byte{0xff}}}}}),
			stats.CDropMalformed},
		{"kindWriteOwn for a read-mostly object", kindWriteOwn,
			msg.NewBuilder(8).U32(2).Bool(true).Bytes(), stats.CDropMisdirected},
		{"kindFwdWrite for a read-mostly object", kindFwdWrite,
			msg.NewBuilder(16).U32(2).U32(0).Bool(false).Bytes(), stats.CDropMisdirected},
		{"kindFwdRead for a read-mostly object", kindFwdRead,
			msg.NewBuilder(8).U32(2).U32(0).Bytes(), stats.CDropMisdirected},
		{"kindModeSw from a node that is not the object's home", kindModeSw,
			msg.NewBuilder(8).U32(2).Bool(true).Bytes(), stats.CDropMisdirected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2)
			opts := DefaultOptions()
			opts.Home = 0
			r.alloc(2, "rm", len(init), ReadMostly, opts, init)
			opts.Engine = EngineLease
			r.alloc(3, "lease", len(init), ReadMostly, opts, init)
			home := r.nodes[0]
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
			for _, name := range []string{stats.CDropUnknownObject, stats.CDropMalformed, stats.CDropMisdirected, stats.CHomeRemRead, stats.CHomeRemWrite, stats.CInvReceived, stats.CLeaseBumps} {
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
		for deadline := time.Now().Add(10 * time.Second); k.C.Get(stats.CDropUnhandled) != int64(i+1); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("kind %#x: drop.unhandled reads %d, want %d", uint16(kind), k.C.Get(stats.CDropUnhandled), i+1)
			}
		}
	}
}
