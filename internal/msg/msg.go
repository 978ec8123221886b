// Package msg defines the wire format used by every Munin component that
// crosses a node boundary: a fixed header (kind, routing, correlation)
// followed by an opaque payload, plus Builder/Reader helpers for encoding
// protocol payloads with encoding/binary semantics.
//
// All inter-node state in this repository travels as a serialized Msg;
// nothing shares pointers across nodes. That discipline is what makes the
// traffic accounting in internal/transport meaningful.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies a node (processor) in the cluster. Node IDs are dense
// small integers assigned at cluster construction.
type NodeID int32

// Kind discriminates message types. Ranges are allocated per subsystem so
// a dispatcher can route on kind alone.
type Kind uint16

// Kind ranges. Each subsystem registers handlers for its range with the
// vkernel dispatcher.
const (
	KindInvalid Kind = 0

	// 0x0100: vkernel control
	KindPing Kind = 0x0100

	// 0x0200: distributed lock service
	KindLockBase Kind = 0x0200

	// 0x0300: Munin coherence protocols
	KindCohBase Kind = 0x0300

	// 0x0400: Ivy page DSM
	KindIvyBase Kind = 0x0400

	// 0x0500: barrier / misc sync
	KindSyncBase Kind = 0x0500

	// 0x0600: application-level message passing (internal/mp baselines)
	KindAppBase Kind = 0x0600
)

// Flags bits.
const (
	FlagReply uint16 = 1 << iota // message is a reply to Seq
	FlagMulticast
	// FlagForward marks a request passed on by the node that first
	// received it (vkernel.Forward): Seq is the original caller's, and
	// the payload starts with the caller's node ID. From stays the
	// forwarding node, the peer the frame really arrives from.
	FlagForward
)

// Msg is one message on the wire.
type Msg struct {
	Kind    Kind
	Flags   uint16
	From    NodeID
	To      NodeID // destination node, or group ID if FlagMulticast
	Seq     uint64 // request/reply correlation token
	Payload []byte
}

// headerSize is the fixed encoded header length in bytes.
const headerSize = 2 + 2 + 4 + 4 + 8 + 4

// HeaderSize is the fixed encoded header length in bytes. The pooled
// encode path reserves this many bytes at the front of a wire buffer
// (Builder.Skip), builds the payload in place behind them, and stamps
// the header with FillHeader once routing and correlation are known —
// no Marshal copy.
const HeaderSize = headerSize

// errShortMessage is returned when decoding a buffer too small to contain
// a complete message.
var errShortMessage = errors.New("msg: short message")

// Marshal encodes m into a fresh byte slice.
func (m *Msg) Marshal() []byte {
	return m.AppendMarshal(make([]byte, 0, m.WireSize()))
}

// AppendMarshal appends m's encoding to dst and returns the extended
// slice. The wire transports marshal into a pooled buffer of WireSize
// capacity this way, so a plain Send costs one payload copy and no
// allocation.
func (m *Msg) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = append(dst, m.Payload...)
	FillHeader(dst[off:], m.Kind, m.Flags, m.From, m.To, m.Seq)
	return dst
}

// FillHeader stamps the fixed header into the first HeaderSize bytes
// of buf, which must already hold HeaderSize reserved bytes followed by
// the complete payload (the payload length word is derived from
// len(buf)). This is the in-place counterpart of Marshal for wire
// buffers built directly in pooled storage.
func FillHeader(buf []byte, kind Kind, flags uint16, from, to NodeID, seq uint64) {
	if len(buf) < headerSize {
		panic(errShortMessage)
	}
	binary.BigEndian.PutUint16(buf[0:], uint16(kind))
	binary.BigEndian.PutUint16(buf[2:], flags)
	binary.BigEndian.PutUint32(buf[4:], uint32(from))
	binary.BigEndian.PutUint32(buf[8:], uint32(to))
	binary.BigEndian.PutUint64(buf[12:], seq)
	binary.BigEndian.PutUint32(buf[20:], uint32(len(buf)-headerSize))
}

// PeekHeader decodes only the kind and destination from a marshalled
// message — what a transport needs to route and charge an already
// encoded buffer without materializing a Msg.
func PeekHeader(buf []byte) (kind Kind, to NodeID, err error) {
	if len(buf) < headerSize {
		return 0, 0, errShortMessage
	}
	return Kind(binary.BigEndian.Uint16(buf[0:])), NodeID(binary.BigEndian.Uint32(buf[8:])), nil
}

// SetFrom overwrites the sender field of a marshalled message in place.
// Transports stamp it on owned buffers the way Send stamps m.From, so
// an encoder never needs to know which endpoint will emit the buffer.
func SetFrom(buf []byte, from NodeID) {
	if len(buf) < headerSize {
		panic(errShortMessage)
	}
	binary.BigEndian.PutUint32(buf[4:], uint32(from))
}

// Unmarshal decodes a message from buf. The returned message's payload
// aliases buf; callers that retain the message must copy.
func Unmarshal(buf []byte) (*Msg, error) {
	if len(buf) < headerSize {
		return nil, errShortMessage
	}
	plen := binary.BigEndian.Uint32(buf[20:])
	if uint32(len(buf)-headerSize) < plen {
		return nil, fmt.Errorf("msg: payload truncated: have %d want %d: %w",
			len(buf)-headerSize, plen, errShortMessage)
	}
	return &Msg{
		Kind:    Kind(binary.BigEndian.Uint16(buf[0:])),
		Flags:   binary.BigEndian.Uint16(buf[2:]),
		From:    NodeID(binary.BigEndian.Uint32(buf[4:])),
		To:      NodeID(binary.BigEndian.Uint32(buf[8:])),
		Seq:     binary.BigEndian.Uint64(buf[12:]),
		Payload: buf[headerSize : headerSize+int(plen)],
	}, nil
}

// WireSize returns the encoded size of the message in bytes. The
// transport charges this size against the bandwidth model.
func (m *Msg) WireSize() int { return headerSize + len(m.Payload) }

// IsReply reports whether the reply flag is set.
func (m *Msg) IsReply() bool { return m.Flags&FlagReply != 0 }

func (m *Msg) String() string {
	return fmt.Sprintf("msg{kind=%#x from=%d to=%d seq=%d flags=%#x |payload|=%d}",
		uint16(m.Kind), m.From, m.To, m.Seq, m.Flags, len(m.Payload))
}
