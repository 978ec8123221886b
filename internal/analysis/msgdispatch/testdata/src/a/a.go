// Fixture for the msgdispatch analyzer: a miniature message plumbing
// package with kind constants, a dispatch switch, Call-family uses, a
// Handle registration, and codec helper pairs — each invariant has one
// firing and one clean case.
package a

import (
	"munin/internal/msg"
	"munin/internal/stats"
	"munin/internal/vkernel"
)

const (
	kindPing = msg.KindAppBase + 0 // Call: replies on every path (clean)
	kindDrop = msg.KindAppBase + 1 // Call: counts a documented drop on decode error (clean)
	kindLeak = msg.KindAppBase + 2 // Call: silent return on one path (firing)
	kindDup  = msg.KindAppBase + 3 // dispatched by two switches (firing)
	kindNone = msg.KindAppBase + 4 // want `message kind kindNone is not dispatched`
	kindFall = msg.KindAppBase + 5 // Call: arm can fall through unresolved (firing)
	kindWire = msg.KindAppBase + 6 // Call: returns on a wire resolver's nil result (clean)
	kindMiss = msg.KindAppBase + 7 // Call: silent return on a resolver's non-nil result (firing)
	kindOut  = msg.KindAppBase + 9 // want `message kind kindOut \(= 1545\) lies outside every k\.Handle range`
)

func register(k *vkernel.Kernel, c *stats.Set) {
	k.Handle(kindPing, kindMiss, func(k *vkernel.Kernel, req *msg.Msg) {
		dispatch(k, c, req)
	})
}

func dispatch(k *vkernel.Kernel, c *stats.Set, req *msg.Msg) {
	switch req.Kind {
	case kindPing:
		k.Reply(req, nil)
	case kindDrop:
		r := msg.NewReader(req.Payload)
		if r.Err() != nil {
			c.Add(stats.CDropMalformed, 1)
			return
		}
		k.Reply(req, nil)
	case kindLeak:
		if len(req.Payload) == 0 {
			return // want `handler for Call kind kindLeak returns without replying, forwarding the request, or counting a documented drop`
		}
		k.Reply(req, nil)
	case kindDup:
		k.Reply(req, nil)
	case kindFall: // want `handler arm for Call kind kindFall can fall through without replying, forwarding the request, or counting a documented drop`
		if len(req.Payload) > 0 {
			k.Reply(req, nil)
		}
	case kindWire:
		o := objFromWire(req.Payload)
		if o == nil {
			return
		}
		if objFromWire(req.Payload[1:]) == nil {
			return
		}
		k.Reply(req, o)
	case kindMiss:
		o := objFromWire(req.Payload)
		if o != nil {
			return // want `handler for Call kind kindMiss returns without replying, forwarding the request, or counting a documented drop`
		}
		k.Reply(req, nil)
	case kindOut:
		k.Reply(req, nil)
	}
}

// objFromWire stands in for a wire resolver, which counts a drop when
// it finds nothing.
func objFromWire(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func dispatchAlt(k *vkernel.Kernel, req *msg.Msg) {
	switch req.Kind {
	case kindDup: // want `message kind kindDup is dispatched by 2 case arms`
		k.Reply(req, nil)
	}
}

func caller(k *vkernel.Kernel) error {
	if _, err := k.Call(0, kindPing, nil); err != nil {
		return err
	}
	if _, err := k.Call(0, kindDrop, nil); err != nil {
		return err
	}
	if _, err := k.Call(0, kindLeak, nil); err != nil {
		return err
	}
	if _, err := k.Call(0, kindFall, nil); err != nil {
		return err
	}
	if _, err := k.Call(0, kindWire, nil); err != nil {
		return err
	}
	if _, err := k.Call(0, kindMiss, nil); err != nil {
		return err
	}
	_, err := k.Call(0, kindNone, nil)
	return err
}

// encodeEntry/decodeEntry agree on the wire sequence (clean).
func encodeEntry(id uint32, n int) []byte {
	return msg.NewBuilder(16).U32(id).Int(n).Bytes()
}

func decodeEntry(p []byte) (uint32, int) {
	r := msg.NewReader(p)
	return r.U32(), r.Int()
}

// encodeStamp/decodeStamp disagree: the reader pulls the fields in the
// opposite order (firing).
func encodeStamp(id uint32, off int) []byte {
	return msg.NewBuilder(16).U32(id).Int(off).Bytes()
}

func decodeStamp(p []byte) (int, uint32) {
	r := msg.NewReader(p)
	off := r.Int() // want `codec mismatch: decodeStamp reads Int at step 1 but encodeStamp writes U32 — field order or width disagree`
	id := r.U32()
	return off, id
}
