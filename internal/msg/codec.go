package msg

import (
	"encoding/binary"
	"errors"
	"math"
)

// Builder incrementally encodes a payload. The zero value is ready to use.
// All integers are big-endian; byte slices and strings are length-prefixed
// with a uvarint.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder with capacity preallocated.
func NewBuilder(capacity int) *Builder {
	return &Builder{buf: make([]byte, 0, capacity)}
}

// Reset points the Builder at buf (appending from len(buf)) without
// allocating. The pooled encode path resets a stack Builder onto a
// pooled buffer sized for the whole message, so every append lands in
// reused storage.
func (b *Builder) Reset(buf []byte) { b.buf = buf }

// Skip extends the encoded payload by n bytes without defining their
// contents; the caller promises to overwrite them (FillHeader uses this
// to reserve header space at the front of a wire buffer).
func (b *Builder) Skip(n int) *Builder {
	l := len(b.buf)
	for cap(b.buf) < l+n {
		b.buf = append(b.buf[:cap(b.buf)], 0)
	}
	b.buf = b.buf[:l+n]
	return b
}

// Bytes returns the encoded payload.
func (b *Builder) Bytes() []byte { return b.buf }

// Len returns the current encoded length.
func (b *Builder) Len() int { return len(b.buf) }

// U8 appends one byte.
func (b *Builder) U8(v uint8) *Builder {
	b.buf = append(b.buf, v)
	return b
}

// U16 appends a big-endian uint16.
func (b *Builder) U16(v uint16) *Builder {
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
	return b
}

// U32 appends a big-endian uint32.
func (b *Builder) U32(v uint32) *Builder {
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
	return b
}

// U64 appends a big-endian uint64.
func (b *Builder) U64(v uint64) *Builder {
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
	return b
}

// I64 appends a big-endian int64 (two's complement).
func (b *Builder) I64(v int64) *Builder { return b.U64(uint64(v)) }

// Int appends an int as int64.
func (b *Builder) Int(v int) *Builder { return b.I64(int64(v)) }

// F64 appends a float64 in IEEE-754 bits.
func (b *Builder) F64(v float64) *Builder { return b.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (b *Builder) Bool(v bool) *Builder {
	if v {
		return b.U8(1)
	}
	return b.U8(0)
}

// Uvarint appends a bare uvarint (no following bytes). Together with a
// precomputed encoded size it lets a batch encoder write an Entry-style
// length prefix and then the entry contents directly into the same
// buffer, instead of building the entry in a temporary Builder and
// copying it (Builder.Entry) — the per-entry allocation the zero-copy
// flush path removes.
func (b *Builder) Uvarint(v uint64) *Builder {
	b.buf = binary.AppendUvarint(b.buf, v)
	return b
}

// UvarintLen returns the encoded size of v as a uvarint — what a batch
// encoder needs to size a wire buffer exactly before writing it.
func UvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// BytesNSize returns the encoded size of an n-byte slice written with
// BytesN: the uvarint length prefix plus the bytes.
func BytesNSize(n int) int { return UvarintLen(uint64(n)) + n }

// BytesN appends a uvarint length prefix followed by the bytes.
func (b *Builder) BytesN(p []byte) *Builder {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(p)))
	b.buf = append(b.buf, p...)
	return b
}

// Raw appends p as it is, with no length prefix: the tail of a payload
// whose decoder takes everything that remains (Reader.Rest).
func (b *Builder) Raw(p []byte) *Builder {
	b.buf = append(b.buf, p...)
	return b
}

// Str appends a length-prefixed string.
func (b *Builder) Str(s string) *Builder {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(s)))
	b.buf = append(b.buf, s...)
	return b
}

// Entry appends a length-prefixed sub-payload built by fn. Multi-object
// batch messages frame each per-object entry this way, under a shared
// header, so a decoder can delimit entries without understanding their
// contents and a corrupt entry cannot desynchronize its neighbours.
func (b *Builder) Entry(fn func(e *Builder)) *Builder {
	var e Builder
	fn(&e)
	return b.BytesN(e.buf)
}

// errCodec is the error reported by Reader when decoding runs off the end
// of the payload or a length prefix is corrupt.
var errCodec = errors.New("msg: malformed payload")

// Reader decodes payloads written by Builder. Decoding errors are sticky:
// after the first failure every subsequent Get returns the zero value and
// Err() reports the failure, so call sites can decode a whole struct and
// check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Fail puts the reader into the (sticky) error state. Decoders use it
// to reject structurally impossible values — e.g. a count word that
// claims more elements than bytes remain — before acting on them.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = errCodec
	}
}

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = errCodec
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 decodes a big-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// U32 decodes a big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 decodes a big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// I64 decodes a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an int encoded with Builder.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 decodes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool decodes a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// BytesN decodes a length-prefixed byte slice. The result aliases the
// underlying payload buffer.
func (r *Reader) BytesN() []byte {
	if r.err != nil {
		return nil
	}
	n, sz := binary.Uvarint(r.buf[r.off:])
	if sz <= 0 || n > uint64(len(r.buf)-r.off-sz) {
		r.err = errCodec
		return nil
	}
	r.off += sz
	return r.take(int(n))
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string { return string(r.BytesN()) }

// Rest decodes everything that remains, written by Builder.Raw. The
// result aliases the underlying payload buffer.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.take(len(r.buf) - r.off)
}

// Entry decodes one length-prefixed sub-payload written by
// Builder.Entry, returning a Reader positioned over just that entry.
// If the outer payload is malformed the returned Reader starts in the
// error state, so batch decoders can keep their per-entry decode loop
// unconditional and check errors once.
func (r *Reader) Entry() *Reader {
	p := r.BytesN()
	return &Reader{buf: p, err: r.err}
}
