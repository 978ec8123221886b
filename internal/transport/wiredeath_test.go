package transport_test

import (
	"testing"
	"time"

	"munin/internal/msg"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// TestTCPWriteErrorLatched kills one pair's wire with a message queued
// on it. The loss is reported the way a mesh member reports it: the
// next send to that peer fails with a peer-down error, and a Call in flight
// to it fails with a peer-down error instead of hanging, because node 0's
// kernel hears its own member's latch. Flush does not report it — a
// latched peer's loss reaches callers through their pending calls (see
// MeshNetwork.Flush). The node's other destinations are unaffected.
func TestTCPWriteErrorLatched(t *testing.T) {
	tcp, err := transport.NewTCPNetwork(2, transport.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	// Unstarted: the kernel subscribes to peer-down but leaves node 0's
	// receive queue to the test.
	k := vkernel.NewUnstarted(tcp, 0)
	defer k.Close()

	release := transport.HoldWriter(tcp, 0, 1)
	called := make(chan error, 1)
	go func() {
		_, err := k.Call(1, msg.KindAppBase, []byte("never answered"))
		called <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); tcp.Stats().Messages() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the call never sent its request")
		}
		time.Sleep(time.Millisecond)
	}
	transport.PairConn(tcp, 0, 1).Close() // the wire dies with the request queued
	release()

	select {
	case err := <-called:
		if peer, down := transport.PeerDownOf(err); !down || peer != 1 {
			t.Fatalf("call in flight over the dead wire = %v, want node 1's peer-down error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call in flight over the dead wire never failed")
	}
	if err := tcp.Endpoint(0).Send(&msg.Msg{Kind: msg.KindPing, To: 1}); err == nil {
		t.Fatal("send after wire failure succeeded")
	} else if _, down := transport.PeerDownOf(err); !down {
		t.Fatalf("send after wire failure = %v, want a peer-down error", err)
	}
	// Other peers are unaffected (self-connection still works).
	if err := tcp.Endpoint(0).Send(&msg.Msg{Kind: msg.KindPing, To: 0}); err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	if got, err := tcp.Endpoint(0).Recv(); err != nil || got.From != 0 {
		t.Fatalf("healthy peer recv: %v %v", got, err)
	}
}
