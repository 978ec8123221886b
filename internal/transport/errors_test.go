package transport

import (
	"fmt"
	"io"
	"testing"
)

// TestErrorPredicatesSeeThroughWrapping: IsClosed, PeerDownOf and
// PeerGoneOf match their error through layers of %w, as a caller gets
// it from the vkernel or a handler, and through the send queue's latch,
// which hands every later sender the error it latched; and each matches
// only its own.
func TestErrorPredicatesSeeThroughWrapping(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("flush: %w", fmt.Errorf("call: %w", err)) }
	latched := func(latch func(*sendQueue)) error {
		q := newSendQueue(1, nil)
		latch(q)
		return wrap(q.put(sendItem{enc: []byte{1}}))
	}
	down, gone := PeerDownError(3, io.EOF), &errPeerGone{Node: 4}
	for name, err := range map[string]error{
		"down":         wrap(down),
		"down latched": latched(func(q *sendQueue) { q.fail(down) }),
		"gone":         wrap(gone),
		"gone latched": latched(func(q *sendQueue) { q.reject(gone) }),
		"closed":       latched(func(q *sendQueue) { q.close() }),
	} {
		peerDown, isDown := PeerDownOf(err)
		peerGone, isGone := PeerGoneOf(err)
		wantDown, wantGone := name == "down" || name == "down latched", name == "gone" || name == "gone latched"
		if isDown != wantDown || isGone != wantGone || IsClosed(err) != (name == "closed") {
			t.Errorf("%s (%v): PeerDownOf %v, PeerGoneOf %v, IsClosed %v", name, err, isDown, isGone, IsClosed(err))
		}
		if (isDown && peerDown != 3) || (isGone && peerGone != 4) {
			t.Errorf("%s: peer %d / %d, want 3 / 4", name, peerDown, peerGone)
		}
	}
	if _, ok := PeerDownOf(nil); ok || IsClosed(nil) {
		t.Error("a nil error matched")
	}
}
