package msg

import (
	"encoding/binary"
	"fmt"
)

// Frame envelope: the unit the transport's coalescing writer puts on the
// wire. One frame carries any number of complete Msgs, each as a
// length-prefixed entry (the same Entry framing multi-object batch
// payloads use), so the writer can emit everything queued for a peer as
// a single write and the reader can delimit the messages without
// understanding their contents.
//
// Layout: U32 message count, then per message a uvarint length prefix
// followed by the Marshal()ed message bytes.

// frameOverhead is the fixed frame envelope cost (the count word).
const frameOverhead = 4

// MaxFrameMessages bounds how many messages one frame may carry. The
// writer splits larger drains into multiple frames (still one vectored
// write); the reader rejects counts above the bound before allocating.
const MaxFrameMessages = 1 << 16

// EncodeFrame packs the already-marshalled messages into one frame.
// An empty batch encodes to a valid frame carrying zero messages.
func EncodeFrame(encoded [][]byte) []byte {
	size := frameOverhead
	for _, e := range encoded {
		size += binary.MaxVarintLen32 + len(e)
	}
	b := NewBuilder(size)
	b.U32(uint32(len(encoded)))
	for _, e := range encoded {
		b.BytesN(e)
	}
	return b.Bytes()
}

// EncodeFrameMsgs is EncodeFrame over unmarshalled messages.
func EncodeFrameMsgs(msgs []*Msg) []byte {
	encoded := make([][]byte, len(msgs))
	for i, m := range msgs {
		encoded[i] = m.Marshal()
	}
	return EncodeFrame(encoded)
}

// AppendFrameHeader appends the frame envelope header for count messages
// to buf. The transport writer uses it to build a vectored write —
// header, then each message's uvarint prefix and body as separate
// buffers — without copying message bytes into one flat slice.
func AppendFrameHeader(buf []byte, count int) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(count))
}

// AppendEntryPrefix appends the uvarint length prefix for one frame
// entry of n bytes.
func AppendEntryPrefix(buf []byte, n int) []byte {
	return binary.AppendUvarint(buf, uint64(n))
}

// DecodeFrameRaw unpacks a frame into its still-marshalled messages
// (each aliasing buf). A truncated or oversized frame returns an error
// rather than a partial result: a corrupt frame must not deliver any of
// its messages, or the sender's FIFO guarantee would silently turn into
// message loss mid-stream. The transport reader uses this form so it
// can route each entry by peeking only the header.
func DecodeFrameRaw(buf []byte) ([][]byte, error) {
	return DecodeFrameRawInto(nil, buf)
}

// DecodeFrameRawInto is DecodeFrameRaw reusing dst's storage for the
// entry list when it is large enough (one exact-sized allocation when
// it is not). A connection's reader passes the same list back frame
// after frame; it must drop the entries (clear) once delivered, or the
// list pins the previous frame.
func DecodeFrameRawInto(dst [][]byte, buf []byte) ([][]byte, error) {
	r := NewReader(buf)
	count := int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("msg: frame header: %w", r.Err())
	}
	if count > MaxFrameMessages {
		return nil, fmt.Errorf("msg: frame claims %d messages (max %d): %w",
			count, MaxFrameMessages, errCodec)
	}
	// Every entry costs at least its one-byte length prefix, so a count
	// beyond the remaining bytes is corrupt; rejecting it here keeps a
	// hostile count word from sizing the preallocation below.
	if count > r.Remaining() {
		return nil, fmt.Errorf("msg: frame claims %d messages in %d bytes: %w",
			count, r.Remaining(), errCodec)
	}
	entries := dst[:0]
	if cap(entries) < count {
		entries = make([][]byte, 0, count)
	}
	for i := 0; i < count; i++ {
		e := r.BytesN()
		if r.Err() != nil {
			return nil, fmt.Errorf("msg: frame entry %d/%d: %w", i, count, r.Err())
		}
		entries = append(entries, e)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("msg: frame has %d trailing bytes: %w", r.Remaining(), errCodec)
	}
	return entries, nil
}

// DecodeFrame unpacks a frame into fully decoded messages. Payloads
// alias buf; callers that retain a message must copy.
func DecodeFrame(buf []byte) ([]*Msg, error) {
	entries, err := DecodeFrameRaw(buf)
	if err != nil {
		return nil, err
	}
	msgs := make([]*Msg, 0, len(entries))
	for i, e := range entries {
		m, err := Unmarshal(e)
		if err != nil {
			return nil, fmt.Errorf("msg: frame entry %d/%d: %w", i, len(entries), err)
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}
