package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	in := []*Msg{
		{Kind: KindPing, From: 0, To: 1, Seq: 7, Payload: []byte("hello")},
		{Kind: KindCohBase + 4, Flags: FlagReply, From: 2, To: 0, Seq: 8, Payload: nil},
		{Kind: KindSyncBase, From: 1, To: 3, Seq: 9, Payload: make([]byte, 4096)},
	}
	for i := range in[2].Payload {
		in[2].Payload[i] = byte(i * 7)
	}
	out, err := DecodeFrame(EncodeFrameMsgs(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d messages, want %d", len(out), len(in))
	}
	for i, m := range out {
		w := in[i]
		if m.Kind != w.Kind || m.Flags != w.Flags || m.From != w.From ||
			m.To != w.To || m.Seq != w.Seq || string(m.Payload) != string(w.Payload) {
			t.Errorf("message %d: got %v, want %v", i, m, w)
		}
	}
}

func TestFrameEmptyBatch(t *testing.T) {
	out, err := DecodeFrame(EncodeFrame(nil))
	if err != nil {
		t.Fatalf("decode empty frame: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty frame decoded to %d messages", len(out))
	}
}

func TestFrameTruncated(t *testing.T) {
	full := EncodeFrameMsgs([]*Msg{
		{Kind: KindPing, To: 1, Seq: 1, Payload: []byte("first")},
		{Kind: KindPing, To: 1, Seq: 2, Payload: []byte("second")},
	})
	// A corrupt frame must not deliver any prefix of its messages:
	// every truncation point fails outright.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

func TestFrameTrailingGarbage(t *testing.T) {
	full := EncodeFrameMsgs([]*Msg{{Kind: KindPing, To: 1, Seq: 1}})
	if _, err := DecodeFrame(append(full, 0xee)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

func TestFrameOversizedCountRejected(t *testing.T) {
	b := NewBuilder(4)
	b.U32(MaxFrameMessages + 1)
	_, err := DecodeFrame(b.Bytes())
	if !errors.Is(err, errCodec) {
		t.Fatalf("oversized count: err = %v, want errCodec", err)
	}
}

func TestFrameCorruptEntryRejected(t *testing.T) {
	// A well-formed envelope whose entry is not a valid Msg.
	b := NewBuilder(16)
	b.U32(1)
	b.BytesN([]byte{1, 2, 3}) // shorter than a Msg header
	if _, err := DecodeFrame(b.Bytes()); err == nil {
		t.Fatal("corrupt entry decoded without error")
	}
}

func TestFrameHostileCountRejectedBeforeAlloc(t *testing.T) {
	// A count within MaxFrameMessages but far beyond what the remaining
	// bytes could hold must be rejected before sizing the entry slice.
	b := NewBuilder(8)
	b.U32(MaxFrameMessages).U16(0)
	if _, err := DecodeFrameRaw(b.Bytes()); !errors.Is(err, errCodec) {
		t.Fatal("hostile count decoded without error")
	}
}

func TestFillHeaderMatchesMarshal(t *testing.T) {
	m := &Msg{Kind: KindLockBase + 3, Flags: FlagReply, From: 2, To: 5, Seq: 99,
		Payload: []byte{1, 2, 3, 4, 5}}
	want := m.Marshal()

	buf := make([]byte, 0, HeaderSize+len(m.Payload))
	var b Builder
	b.Reset(buf)
	b.Skip(HeaderSize)
	got := append(b.Bytes(), m.Payload...)
	FillHeader(got, m.Kind, m.Flags, m.From, m.To, m.Seq)
	if !bytes.Equal(got, want) {
		t.Fatalf("FillHeader wire bytes differ:\n got %x\nwant %x", got, want)
	}
}

func TestFillHeaderShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FillHeader(make([]byte, HeaderSize-1), KindPing, 0, 0, 0, 0)
}

func TestPeekHeader(t *testing.T) {
	m := &Msg{Kind: KindCohBase + 4, To: 7, Seq: 1, Payload: []byte{9}}
	kind, to, err := PeekHeader(m.Marshal())
	if err != nil || kind != m.Kind || to != m.To {
		t.Fatalf("PeekHeader = %v,%v,%v", kind, to, err)
	}
	if _, _, err := PeekHeader(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short peek succeeded")
	}
}

func TestBuilderSkipAndUvarint(t *testing.T) {
	var b Builder
	b.Reset(make([]byte, 0, 4)) // force Skip to grow past capacity
	b.Skip(6)
	if b.Len() != 6 {
		t.Fatalf("Skip len = %d", b.Len())
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		var u Builder
		u.Uvarint(v)
		if u.Len() != UvarintLen(v) {
			t.Fatalf("UvarintLen(%d) = %d, encoded %d", v, UvarintLen(v), u.Len())
		}
		got, n := binary.Uvarint(u.Bytes())
		if got != v || n != u.Len() {
			t.Fatalf("Uvarint(%d) decoded to %d (%d bytes)", v, got, n)
		}
	}
}

func TestReaderFailIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	r.Fail()
	if !errors.Is(r.Err(), errCodec) {
		t.Fatalf("Fail err = %v", r.Err())
	}
	if r.U32() != 0 {
		t.Fatal("read after Fail returned data")
	}
}

// BenchmarkFrameAssembly measures the writer-side frame primitives the
// drain loop uses: header + per-entry prefixes into reused scratch.
func BenchmarkFrameAssembly(b *testing.B) {
	bodies := make([][]byte, 16)
	for i := range bodies {
		bodies[i] = make([]byte, 200)
	}
	hdr := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr = AppendFrameHeader(hdr[:0], len(bodies))
		for _, body := range bodies {
			hdr = AppendEntryPrefix(hdr, len(body))
		}
	}
}
