// Package memory provides the shared-object data model the coherence
// protocols operate on: byte-addressed object copies, spans (contiguous
// runs of modified bytes, and their wire codec), and the dirty set (which
// bytes of a copy this node's buffered writes have stored since the last
// flush).
//
// Spans and the dirty set are the machinery behind the paper's delayed
// update mechanism. Munin found an interval's writes by diffing the object
// against a twin, because a page-protection trap says which page was
// written, never which bytes; here every write is a call that knows its
// range, so Dirty.Write records the range as it stores the bytes, and when
// the delayed update queue flushes, Dirty.Take reads the spans off and
// copies their bytes once from the live copy. Multiple writes to the same
// object in one interval collapse into one message ("delaying updates
// allows the system to combine updates to the same object"), and only a
// local write can add to the set, so an update received from another node
// can never ride this node's next flush.
//
// Diff, MakeTwin and MakeTwinInto remain only because benchmark/probes.go
// times them and the dirty set's property test uses Diff as its reference;
// nothing on the flush path calls them.
package memory

import (
	"encoding/binary"
	"fmt"

	"munin/internal/msg"
)

// ObjectID identifies a shared data object across the whole cluster.
type ObjectID uint32

// Span is one contiguous run of modified bytes within an object.
type Span struct {
	Off  int
	Data []byte
}

// End returns the exclusive end offset of the span.
func (s Span) End() int { return s.Off + len(s.Data) }

func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Off, s.End()) }

// MakeTwin returns a private snapshot of data.
func MakeTwin(data []byte) []byte {
	return append([]byte(nil), data...)
}

// MakeTwinInto snapshots data into dst (reusing its storage), the
// pooled-twin counterpart of MakeTwin.
func MakeTwinInto(dst, data []byte) []byte {
	return append(dst[:0], data...)
}

// Diff computes the byte spans where cur differs from twin, appending
// the spans to dst and their payload bytes to buf; it returns both so
// callers observe append-style growth. Each returned span's Data aliases
// buf — the caller owns both scratch slices and decides when the bytes
// die (on the flush path they are pooled and released once the encoded
// message is on the wire).
//
// Runs of equal bytes shorter than joinGap between two differing runs
// are folded into one span, trading a few redundant bytes for fewer
// spans (the same space/metadata tradeoff real DSM diff encodings make).
// The two slices must be the same length.
//
// Equal runs are scanned a 64-bit word at a time: flush-time diffs are
// dominated by unchanged bytes (that is the point of diffing), so the
// equal-run scan is the loop that sets the cost of a flush.
func Diff(dst []Span, buf []byte, twin, cur []byte, joinGap int) ([]Span, []byte) {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("memory: diff length mismatch %d vs %d", len(twin), len(cur)))
	}
	n := len(cur)
	i := 0
	for i < n {
		// Skip the equal run word-at-a-time, then byte-at-a-time to find
		// the exact mismatch position (or the tail, when fewer than eight
		// bytes remain).
		for i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
		}
		for i < n && twin[i] == cur[i] {
			i++
		}
		if i >= n {
			break
		}
		// Start of a differing run.
		start := i
		last := i // last differing index seen
		j := i + 1
		for j < n {
			if twin[j] != cur[j] {
				last = j
				j++
				continue
			}
			// Equal byte: look ahead up to joinGap for another difference.
			k := j
			for k < n && k-last <= joinGap && twin[k] == cur[k] {
				k++
			}
			if k < n && k-last <= joinGap && twin[k] != cur[k] {
				last = k
				j = k + 1
				continue
			}
			break
		}
		off := len(buf)
		buf = append(buf, cur[start:last+1]...)
		// Three-index slice: a later append to buf must grow a new backing
		// array rather than scribble over this span's bytes.
		dst = append(dst, Span{Off: start, Data: buf[off:len(buf):len(buf)]})
		i = last + 1
	}
	return dst, buf
}

// ApplySpans writes each span into dst. Panics if a span exceeds dst.
func ApplySpans(dst []byte, spans []Span) {
	for _, s := range spans {
		if s.Off < 0 || s.End() > len(dst) {
			panic(fmt.Sprintf("memory: span %v out of range for object of size %d", s, len(dst)))
		}
		copy(dst[s.Off:], s.Data)
	}
}

// SpanBytes returns the total payload bytes across spans.
func SpanBytes(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += len(s.Data)
	}
	return n
}

// CloneSpans deep-copies spans into freshly allocated storage (one
// shared backing buffer). Receive-side decode hands out spans aliasing
// pooled scratch; any code that parks spans past the handler's return —
// e.g. out-of-order updates waiting for a sequence gap to fill — must
// clone them first or the pool will recycle the bytes underneath.
func CloneSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	out := make([]Span, len(spans))
	buf := make([]byte, 0, SpanBytes(spans))
	for i, s := range spans {
		off := len(buf)
		buf = append(buf, s.Data...)
		out[i] = Span{Off: s.Off, Data: buf[off:len(buf):len(buf)]}
	}
	return out
}

// EncodedSpansSize returns the exact wire size of EncodeSpans(spans),
// letting the flush path size one pooled buffer for a whole message
// before encoding instead of growing into it.
func EncodedSpansSize(spans []Span) int {
	n := 4 // count word
	for _, s := range spans {
		n += 4 + msg.UvarintLen(uint64(len(s.Data))) + len(s.Data)
	}
	return n
}

// EncodeSpans appends a wire encoding of spans to b.
func EncodeSpans(b *msg.Builder, spans []Span) {
	b.U32(uint32(len(spans)))
	for _, s := range spans {
		b.U32(uint32(s.Off))
		b.BytesN(s.Data)
	}
}

// DecodeSpansInto reads spans encoded by EncodeSpans, appending the
// span records to dst and their payload bytes to buf (the spans alias
// buf, so they are dead once the caller reuses it). The receive path
// decodes in place instead (DecodeSpansView). On a malformed payload
// the inputs are returned unchanged and r.Err() reports the failure.
func DecodeSpansInto(dst []Span, buf []byte, r *msg.Reader) ([]Span, []byte) {
	n := int(r.U32())
	if r.Err() != nil {
		return dst, buf
	}
	// Each encoded span costs at least 5 bytes (4-byte offset plus a
	// 1-byte length prefix), so a count claiming more than fits in the
	// remaining payload is corrupt. Rejecting it here keeps a hostile
	// 32-bit count word from sizing the growth below.
	if n > r.Remaining()/5 {
		r.Fail()
		return dst, buf
	}
	d0, b0 := len(dst), len(buf)
	for i := 0; i < n; i++ {
		off := int(r.U32())
		data := r.BytesN()
		if r.Err() != nil {
			return dst[:d0], buf[:b0]
		}
		p := len(buf)
		buf = append(buf, data...)
		dst = append(dst, Span{Off: off, Data: buf[p:len(buf):len(buf)]})
	}
	return dst, buf
}

// DecodeSpansView reads spans encoded by EncodeSpans that end r's
// payload, appending them to dst without a copy: each span's bytes
// alias the payload, so the spans live exactly as long as it does. It
// consumes the rest of r; on a malformed payload, trailing bytes
// included, dst is returned unchanged and r.Err() reports the failure.
func DecodeSpansView(dst []Span, r *msg.Reader) []Span {
	p := r.Rest()
	if len(p) < 4 {
		r.Fail()
		return dst
	}
	n := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	// As in DecodeSpansInto: at least 5 bytes a span.
	if n > len(p)/5 {
		r.Fail()
		return dst
	}
	d0 := len(dst)
	for i := 0; i < n; i++ {
		if len(p) < 5 {
			r.Fail()
			return dst[:d0]
		}
		off := int(binary.BigEndian.Uint32(p))
		size, k := binary.Uvarint(p[4:])
		if k <= 0 || size > uint64(len(p)-4-k) {
			r.Fail()
			return dst[:d0]
		}
		p = p[4+k:]
		dst = append(dst, Span{Off: off, Data: p[:size:size]})
		p = p[size:]
	}
	if len(p) != 0 {
		r.Fail()
		return dst[:d0]
	}
	return dst
}

// DecodeSpans reads spans encoded by EncodeSpans into fresh storage.
// The returned spans copy their data out of the reader's buffer; nil is
// returned on malformed input (r.Err() reports why).
func DecodeSpans(r *msg.Reader) []Span {
	spans, _ := DecodeSpansInto(nil, nil, r)
	if r.Err() != nil {
		return nil
	}
	return spans
}
