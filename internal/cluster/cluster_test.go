package cluster

import (
	"testing"
	"time"

	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

func TestNewAndClose(t *testing.T) {
	for _, tr := range []string{"", "chan", "tcp"} {
		c, err := New(Config{Nodes: 3, Transport: tr})
		if err != nil {
			t.Fatalf("transport %q: %v", tr, err)
		}
		if c.Nodes() != 3 {
			t.Fatalf("nodes = %d", c.Nodes())
		}
		c.Close()
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := New(Config{Nodes: 2, Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestKernelsCommunicate(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Kernel(1).Handle(msg.KindPing, msg.KindPing, func(k *vkernel.Kernel, req *msg.Msg) {
		k.Reply(req, []byte("pong"))
	})
	reply, err := c.Kernel(0).Call(1, msg.KindPing, nil)
	if err != nil || string(reply.Payload) != "pong" {
		t.Fatalf("call across cluster: %v %v", reply, err)
	}
}

func TestHomeOf(t *testing.T) {
	if HomeOf(0, 4) != 0 || HomeOf(5, 4) != 1 || HomeOf(7, 4) != 3 {
		t.Fatal("HomeOf wrong")
	}
	// Home must always be a valid node.
	for id := uint64(0); id < 100; id++ {
		h := HomeOf(id, 3)
		if h < 0 || h >= 3 {
			t.Fatalf("HomeOf(%d,3) = %d", id, h)
		}
	}
}

func TestStatsAccessible(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Stats() == nil {
		t.Fatal("nil stats")
	}
	if err := c.Kernel(0).Send(1, msg.KindPing, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Messages() != 1 {
		t.Fatalf("messages = %d", c.Stats().Messages())
	}
}

// TestMeshNodeHoldsRequestsUntilStart is the start-up order a mesh
// member lives by: its listener is bound — peers can reach it — before
// its owner has registered a single handler, so a request that arrives
// in between must wait in the receive queue, not be dispatched to an
// unbound kind. A dropped request is a hang, not an error: the peer is
// alive, so nothing ever fails the caller.
func TestMeshNodeHoldsRequestsUntilStart(t *testing.T) {
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	build := func(self msg.NodeID) *Cluster {
		c, err := New(Config{Topology: &transport.Topology{Self: self, Peers: peers}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	late := build(0) // bound, nothing registered, not started
	defer late.Close()
	early := build(1)
	defer early.Close()
	early.Start()

	type result struct {
		reply *msg.Msg
		err   error
	}
	res := make(chan result, 1)
	go func() {
		reply, err := early.Kernel(1).Call(0, msg.KindPing, nil)
		res <- result{reply, err}
	}()
	// The request is in member 0's receive queue once it is counted as
	// received there.
	for deadline := time.Now().Add(10 * time.Second); late.Stats().NodeReceived(0) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached member 0")
		}
		time.Sleep(time.Millisecond)
	}

	late.Kernel(0).Handle(msg.KindPing, msg.KindPing, func(k *vkernel.Kernel, req *msg.Msg) {
		k.Reply(req, []byte("pong"))
	})
	late.Start()
	select {
	case r := <-res:
		if r.err != nil || string(r.reply.Payload) != "pong" {
			t.Fatalf("call into a member that registered late: %v %v", r.reply, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the call never completed: the request was consumed before its handler existed")
	}
	if n := late.Kernel(0).C.Get("drop.unhandled"); n != 0 {
		t.Fatalf("drop.unhandled = %d on member 0, want 0", n)
	}
}

// TestKillRacingCloseSaysNoGoodbye: a member whose work ends when Kill
// closes its kernel, and which calls Close at once, must still die
// without a goodbye. Its peer counts one wire death and no departure.
func TestKillRacingCloseSaysNoGoodbye(t *testing.T) {
	for round := 0; round < 5; round++ {
		addrs, err := netutil.ReserveAddrs(2)
		if err != nil {
			t.Fatal(err)
		}
		peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
		build := func(self msg.NodeID) *Cluster {
			c, err := New(Config{Topology: &transport.Topology{Self: self, Peers: peers}})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		peer, victim := build(0), build(1)
		called := make(chan struct{})
		peer.Kernel(0).Handle(msg.KindPing, msg.KindPing, func(k *vkernel.Kernel, req *msg.Msg) {
			close(called) // and never reply: the call parks until the kernel closes
		})
		peer.Start()
		victim.Start()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if _, err := victim.Kernel(1).Call(0, msg.KindPing, nil); err == nil {
				t.Error("the parked call returned without an error")
			}
			victim.Close()
		}()
		<-called
		victim.Kill()
		<-closed
		st := peer.Stats()
		for deadline := time.Now().Add(10 * time.Second); st.WirePeerDown()+st.WirePeerGone() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the peer never saw the victim go")
			}
		}
		if down, gone := st.WirePeerDown(), st.WirePeerGone(); down != 1 || gone != 0 {
			t.Fatalf("round %d: wire.peer_down = %d, wire.peer_gone = %d, want 1 and 0", round, down, gone)
		}
		peer.Close()
	}
}
