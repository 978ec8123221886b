package vkernel

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"munin/internal/bufpool"
	"munin/internal/msg"
	"munin/internal/transport"
)

// replyWire builds a complete pooled reply for ReplyOwned: header space
// reserved, payload behind it.
func replyWire(payload []byte) *bufpool.Buffer {
	wb, b := NewWire(len(payload))
	wb.B = append(b.Bytes(), payload...)
	return wb
}

// outstanding returns how many pooled buffers are currently owned by
// someone: gotten and not yet released.
func outstanding() int64 {
	gets, puts, _, _ := bufpool.Stats()
	return gets - puts
}

// TestReplyOwnedReleasesOnEveryPath pins ReplyOwned's unconditional
// ownership transfer: whether the reply is delivered (through the chan
// transport's serialize-and-release fallback), refused because the
// requester does not exist, or refused because the network has shut
// down, the buffer is back in the pool when the call returns.
func TestReplyOwnedReleasesOnEveryPath(t *testing.T) {
	networks := map[string]func() transport.Network{
		"chan": func() transport.Network { return transport.NewChanNetwork(2, transport.CostModel{}) },
		"tcp": func() transport.Network {
			net, err := transport.NewTCPNetwork(2, transport.CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			return net
		},
	}
	for name, newNet := range networks {
		t.Run(name+"/unknown node", func(t *testing.T) {
			net := newNet()
			k := New(net, 0)
			defer func() { net.Close(); k.Wait() }()
			before := outstanding()
			req := &msg.Msg{Kind: msg.KindPing, From: 99, Seq: 1}
			if err := k.ReplyOwned(req, replyWire([]byte("lost"))); err == nil {
				t.Fatal("reply to a node that does not exist succeeded")
			}
			if d := outstanding() - before; d != 0 {
				t.Fatalf("%d pooled buffers still owned after a refused reply", d)
			}
		})
		t.Run(name+"/closed", func(t *testing.T) {
			net := newNet()
			k := New(net, 0)
			net.Close()
			k.Wait()
			before := outstanding()
			req := &msg.Msg{Kind: msg.KindPing, From: 1, Seq: 1}
			if err := k.ReplyOwned(req, replyWire([]byte("late"))); err == nil {
				t.Fatal("reply on a closed network succeeded")
			}
			if d := outstanding() - before; d != 0 {
				t.Fatalf("%d pooled buffers still owned after a reply at shutdown", d)
			}
		})
	}
	t.Run("chan/delivered", func(t *testing.T) {
		ks, _ := newTestKernels(t, 2)
		ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
			k.ReplyOwned(req, replyWire(append([]byte("pong:"), req.Payload...)))
		})
		before := outstanding()
		reply, err := ks[0].Call(1, msg.KindPing, []byte("x"))
		if err != nil || string(reply.Payload) != "pong:x" {
			t.Fatalf("reply = %v, %v", reply, err)
		}
		// The fallback serializes the reply before releasing the buffer,
		// so the delivered payload must survive the pool's next owner.
		scribble := bufpool.Get(msg.HeaderSize + 6)
		scribble.B = append(scribble.B, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"...)
		scribble.Release()
		if string(reply.Payload) != "pong:x" {
			t.Fatalf("delivered reply aliases the released buffer: %q", reply.Payload)
		}
		if d := outstanding() - before; d != 0 {
			t.Fatalf("%d pooled buffers still owned after a delivered reply", d)
		}
	})
}

// BenchmarkCallRTT measures one blocking request/reply round trip over
// loopback TCP — call registration, pooled marshal, writer, reader,
// dispatch, handler, reply, wake — with a 64 B and a 4 KB reply, the
// shapes of a lock round trip and of a read fault. CI gates the 64 B
// figure's allocs/op. segs/op is the host's TCP segments sent per call,
// from /proc/net/snmp where there is one: two messages on one duplex
// connection are about two segments (each carries the other's ACK),
// and anything else on the host that talks TCP is counted with them, so
// it is reported, never gated.
func BenchmarkCallRTT(b *testing.B) {
	net, err := transport.NewTCPNetwork(2, transport.CostModel{})
	if err != nil {
		b.Fatal(err)
	}
	k0, k1 := New(net, 0), New(net, 1)
	defer func() { net.Close(); k0.Wait(); k1.Wait() }()
	page := make([]byte, 4096)
	k1.Handle(msg.KindPing, msg.KindPing+1, func(k *Kernel, req *msg.Msg) {
		if req.Kind == msg.KindPing {
			k.Reply(req, req.Payload)
		} else {
			k.ReplyOwned(req, replyWire(page))
		}
	})
	payload := make([]byte, 64)
	for _, shape := range []struct {
		name string
		kind msg.Kind
	}{{"64", msg.KindPing}, {"4k", msg.KindPing + 1}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			segs, counted := tcpOutSegs()
			for i := 0; i < b.N; i++ {
				if _, err := k0.Call(1, shape.kind, payload); err != nil {
					b.Fatal(err)
				}
			}
			if after, ok := tcpOutSegs(); ok && counted {
				b.ReportMetric(float64(after-segs)/float64(b.N), "segs/op")
			}
		})
	}
}

// tcpOutSegs reads the host's count of TCP segments sent; ok is false
// where /proc/net/snmp does not exist or has no such column.
func tcpOutSegs() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Tcp:" {
			continue
		}
		if names == nil {
			names = f
			continue
		}
		for i, name := range names {
			if name == "OutSegs" && i < len(f) {
				n, err = strconv.ParseInt(f[i], 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}
