package msg

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMsgRoundTrip(t *testing.T) {
	m := &Msg{
		Kind:    KindLockBase + 3,
		Flags:   FlagReply,
		From:    2,
		To:      5,
		Seq:     0xdeadbeefcafe,
		Payload: []byte("hello world"),
	}
	buf := m.Marshal()
	if len(buf) != m.WireSize() {
		t.Fatalf("marshal len %d != WireSize %d", len(buf), m.WireSize())
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Flags != m.Flags || got.From != m.From ||
		got.To != m.To || got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch: %v vs %v", got, m)
	}
	if !got.IsReply() {
		t.Fatal("IsReply = false, want true")
	}
}

func TestMsgEmptyPayload(t *testing.T) {
	m := &Msg{Kind: KindPing, From: 0, To: 1}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
	if got.IsReply() {
		t.Fatal("IsReply = true, want false")
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 5)); !errors.Is(err, errShortMessage) {
		t.Fatalf("err = %v, want errShortMessage", err)
	}
	// Header claims a longer payload than present.
	m := &Msg{Kind: KindPing, Payload: []byte{1, 2, 3, 4}}
	buf := m.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-2]); !errors.Is(err, errShortMessage) {
		t.Fatalf("truncated payload err = %v, want errShortMessage", err)
	}
}

func TestMsgRoundTripProperty(t *testing.T) {
	f := func(kind uint16, flags uint16, from, to int32, seq uint64, payload []byte) bool {
		m := &Msg{Kind: Kind(kind), Flags: flags, From: NodeID(from),
			To: NodeID(to), Seq: seq, Payload: payload}
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		return got.Kind == m.Kind && got.Flags == m.Flags &&
			got.From == m.From && got.To == m.To && got.Seq == m.Seq &&
			bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReaderRoundTrip(t *testing.T) {
	b := NewBuilder(64)
	b.U8(7).U16(1000).U32(70000).U64(1 << 40).I64(-42).Int(-1).
		F64(3.5).Bool(true).Bool(false).BytesN([]byte{9, 8, 7}).Str("munin")
	r := NewReader(b.Bytes())
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 1000 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32(); v != 70000 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -1 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.F64(); v != 3.5 {
		t.Fatalf("F64 = %g", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := r.BytesN(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Fatalf("BytesN = %v", v)
	}
	if v := r.Str(); v != "munin" {
		t.Fatalf("Str = %q", v)
	}
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // runs off the end
	if !errors.Is(r.Err(), errCodec) {
		t.Fatalf("err = %v, want errCodec", r.Err())
	}
	// Subsequent reads return zero values, error stays.
	if v := r.U8(); v != 0 {
		t.Fatalf("after error U8 = %d, want 0", v)
	}
	if v := r.Str(); v != "" {
		t.Fatalf("after error Str = %q, want empty", v)
	}
	if !errors.Is(r.Err(), errCodec) {
		t.Fatalf("sticky error lost: %v", r.Err())
	}
}

func TestReaderCorruptLengthPrefix(t *testing.T) {
	b := NewBuilder(8)
	b.BytesN(bytes.Repeat([]byte{1}, 100))
	buf := b.Bytes()[:10] // truncate the body
	r := NewReader(buf)
	if v := r.BytesN(); v != nil {
		t.Fatalf("BytesN on truncated = %v, want nil", v)
	}
	if !errors.Is(r.Err(), errCodec) {
		t.Fatalf("err = %v, want errCodec", r.Err())
	}
}

func TestBuilderReaderProperty(t *testing.T) {
	f := func(a uint64, b int64, s string, p []byte, flag bool) bool {
		bld := NewBuilder(0)
		bld.U64(a).I64(b).Str(s).BytesN(p).Bool(flag)
		r := NewReader(bld.Bytes())
		ga, gb, gs, gp, gf := r.U64(), r.I64(), r.Str(), r.BytesN(), r.Bool()
		return r.Err() == nil && ga == a && gb == b && gs == s &&
			bytes.Equal(gp, p) && gf == flag && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntryFramingRoundTrip(t *testing.T) {
	// A batch: shared header (count) then length-prefixed entries.
	b := NewBuilder(0)
	b.U32(2)
	b.Entry(func(e *Builder) { e.U32(7).BytesN([]byte("abc")) })
	b.Entry(func(e *Builder) { e.U32(9).BytesN(nil) })

	r := NewReader(b.Bytes())
	if n := r.U32(); n != 2 {
		t.Fatalf("count = %d", n)
	}
	e1 := r.Entry()
	if id := e1.U32(); id != 7 {
		t.Fatalf("entry1 id = %d", id)
	}
	if p := e1.BytesN(); string(p) != "abc" {
		t.Fatalf("entry1 body = %q", p)
	}
	if e1.Remaining() != 0 || e1.Err() != nil {
		t.Fatalf("entry1 remaining=%d err=%v", e1.Remaining(), e1.Err())
	}
	e2 := r.Entry()
	if id := e2.U32(); id != 9 {
		t.Fatalf("entry2 id = %d", id)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("outer remaining=%d err=%v", r.Remaining(), r.Err())
	}
}

func TestEntryOverrunStaysInsideFrame(t *testing.T) {
	// Reading past one entry's end must error that entry's Reader, not
	// leak into the next entry's bytes.
	b := NewBuilder(0)
	b.Entry(func(e *Builder) { e.U8(1) })
	b.Entry(func(e *Builder) { e.U8(2) })
	r := NewReader(b.Bytes())
	e1 := r.Entry()
	if v := e1.U8(); v != 1 {
		t.Fatalf("entry1 = %d", v)
	}
	if v := e1.U8(); v != 0 || !errors.Is(e1.Err(), errCodec) {
		t.Fatalf("overrun read = %d err = %v, want 0/errCodec", v, e1.Err())
	}
	// The outer reader is still positioned at entry 2.
	e2 := r.Entry()
	if v := e2.U8(); v != 2 || r.Err() != nil {
		t.Fatalf("entry2 = %d outer err = %v", v, r.Err())
	}
}

func TestEntryOnMalformedOuterIsErrored(t *testing.T) {
	r := NewReader([]byte{0xff}) // uvarint length prefix with no body
	e := r.Entry()
	if e.Err() == nil {
		t.Fatal("entry reader on malformed outer payload has no error")
	}
	if v := e.U32(); v != 0 {
		t.Fatalf("errored entry U32 = %d", v)
	}
}
