package vkernel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/transport"
)

func newTestKernels(t *testing.T, n int) ([]*Kernel, transport.Network) {
	t.Helper()
	net := transport.NewChanNetwork(n, transport.CostModel{})
	ks := make([]*Kernel, n)
	for i := range ks {
		ks[i] = New(net, msg.NodeID(i))
	}
	t.Cleanup(func() {
		net.Close()
		for _, k := range ks {
			k.Wait()
		}
	})
	return ks, net
}

func TestCallReply(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, append([]byte("pong:"), req.Payload...))
	})
	reply, err := ks[0].Call(1, msg.KindPing, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Payload) != "pong:x" {
		t.Fatalf("reply = %q", reply.Payload)
	}
}

func TestCallSelf(t *testing.T) {
	ks, _ := newTestKernels(t, 1)
	ks[0].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, []byte("self"))
	})
	reply, err := ks[0].Call(0, msg.KindPing, nil)
	if err != nil || string(reply.Payload) != "self" {
		t.Fatalf("self call: %v %v", reply, err)
	}
}

// TestCallSelfOverTCPSkipsTheSocket: a node's messages to itself — the
// request through Send, the pooled reply through SendOwned — are
// delivered and counted like any others, but cross no wire.
func TestCallSelfOverTCPSkipsTheSocket(t *testing.T) {
	net, err := transport.NewTCPNetwork(2, transport.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := New(net, 0), New(net, 1)
	defer func() { net.Close(); k0.Wait(); k1.Wait() }()
	k0.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.ReplyOwned(req, replyWire(req.Payload))
	})
	const calls = 10
	for i := 0; i < calls; i++ {
		reply, err := k0.Call(0, msg.KindPing, []byte{byte(i)})
		if err != nil || len(reply.Payload) != 1 || reply.Payload[0] != byte(i) {
			t.Fatalf("self call %d: reply %v, err %v", i, reply, err)
		}
	}
	if err := k0.Flush(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if got := st.Messages(); got != 2*calls {
		t.Errorf("Messages() = %d, want %d: self-sends are still messages", got, 2*calls)
	}
	// A delivery is counted just after the push that makes the message
	// visible, so the last reply can be in hand before it is counted.
	for deadline := time.Now().Add(5 * time.Second); st.NodeReceived(0) < 2*calls && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if got := st.NodeReceived(0); got != 2*calls {
		t.Errorf("NodeReceived(0) = %d, want %d", got, 2*calls)
	}
	if got := st.WireWrites(); got != 0 {
		t.Errorf("wire.writes = %d after self-calls only, want 0", got)
	}
}

func TestHandlerCanCallOtherNodes(t *testing.T) {
	// Node 0 calls node 1; node 1's handler calls node 2 before replying.
	// This is the forwarding pattern directory protocols rely on.
	ks, _ := newTestKernels(t, 3)
	ks[2].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, []byte("leaf"))
	})
	ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		r, err := k.Call(2, msg.KindPing, nil)
		if err != nil {
			k.Reply(req, []byte("err"))
			return
		}
		k.Reply(req, append([]byte("via1:"), r.Payload...))
	})
	reply, err := ks[0].Call(1, msg.KindPing, nil)
	if err != nil || string(reply.Payload) != "via1:leaf" {
		t.Fatalf("forwarded call: %q %v", reply.Payload, err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, req.Payload)
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			reply, err := ks[0].Call(1, msg.KindPing, []byte{i})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if len(reply.Payload) != 1 || reply.Payload[0] != i {
				t.Errorf("reply mismatch: %v want %d", reply.Payload, i)
			}
		}(byte(i))
	}
	wg.Wait()
}

func TestOneWaySend(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	got := make(chan []byte, 1)
	ks[1].Handle(msg.KindAppBase, msg.KindAppBase, func(k *Kernel, req *msg.Msg) {
		got <- req.Payload
	})
	if err := ks[0].Send(1, msg.KindAppBase, []byte("oneway")); err != nil {
		t.Fatal(err)
	}
	if p := <-got; string(p) != "oneway" {
		t.Fatalf("payload = %q", p)
	}
}

func TestMulticastGroup(t *testing.T) {
	ks, _ := newTestKernels(t, 4)
	var mu sync.Mutex
	received := map[msg.NodeID]bool{}
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 1; i < 4; i++ {
		ks[i].Handle(msg.KindAppBase, msg.KindAppBase, func(k *Kernel, req *msg.Msg) {
			mu.Lock()
			received[k.Node()] = true
			mu.Unlock()
			wg.Done()
		})
	}
	// Sender is a member too; it must not deliver to itself.
	ks[0].DefineGroup(7, []msg.NodeID{0, 1, 2, 3})
	if got := len(ks[0].Group(7)); got != 4 {
		t.Fatalf("group size = %d", got)
	}
	if err := ks[0].Multicast(7, msg.KindAppBase, []byte("m")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 3 || received[0] {
		t.Fatalf("received = %v", received)
	}
}

func TestMulticastToNobody(t *testing.T) {
	ks, net := newTestKernels(t, 2)
	before := net.Stats().Messages()
	if err := ks[0].MulticastTo([]msg.NodeID{0}, msg.KindAppBase, nil); err != nil {
		t.Fatal(err)
	}
	if net.Stats().Messages() != before {
		t.Fatal("multicast to only-self sent wire traffic")
	}
}

func TestUnhandledKindDropped(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	// No handler registered on node 1 for this kind: message is dropped,
	// nothing crashes, and subsequent traffic still works.
	if err := ks[0].Send(1, msg.KindIvyBase, []byte("stray")); err != nil {
		t.Fatal(err)
	}
	ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, nil)
	})
	if _, err := ks[0].Call(1, msg.KindPing, nil); err != nil {
		t.Fatal(err)
	}
	// The ping was dispatched behind the stray, so the drop is counted.
	if got := ks[1].ctr.DropUnhandled.Load(); got != 1 {
		t.Fatalf("drop.unhandled = %d, want 1", got)
	}
}

// TestLateReplyCounted: a reply whose call is no longer pending — here
// a handler's second reply to one request — is dropped, counted as
// drop.stray_reply, and disturbs neither the call it is late for nor
// the next one.
func TestLateReplyCounted(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	lateSent := make(chan struct{})
	ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, []byte("first"))
		if len(req.Payload) > 0 {
			k.Reply(req, []byte("late"))
			close(lateSent)
		}
	})
	reply, err := ks[0].Call(1, msg.KindPing, []byte("twice"))
	if err != nil || string(reply.Payload) != "first" {
		t.Fatalf("call: %v, %v", reply, err)
	}
	// Handlers run concurrently, so the next call's reply could beat the
	// late one out of node 1; wait until the late one is sent. Delivery
	// is FIFO per sender and receiver: once the next call's reply is in,
	// the late one before it has been dispatched.
	<-lateSent
	if reply, err = ks[0].Call(1, msg.KindPing, nil); err != nil || string(reply.Payload) != "first" {
		t.Fatalf("next call: %v, %v", reply, err)
	}
	if got := ks[0].ctr.DropStrayReply.Load(); got != 1 {
		t.Fatalf("drop.stray_reply = %d, want 1", got)
	}
}

// TestBlockedHandlersNeverStarveARequest: more handlers than the kernel
// retains workers are blocked at once, each in a nested Call whose
// handler must run on the same kernel, and those inner handlers in turn
// all wait for each other. It completes only if no request ever waits
// for a worker — every one finds a parked goroutine or gets a fresh
// one.
func TestBlockedHandlersNeverStarveARequest(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const callers = 3 * handlerWorkers
			ks, _ := newTestKernels(t, 2)
			var arrived atomic.Int32
			all := make(chan struct{}) // closed when every inner handler is running
			var release sync.Once
			ks[1].Handle(msg.KindPing, msg.KindPing+2, func(k *Kernel, req *msg.Msg) {
				switch req.Kind {
				case msg.KindPing:
					if _, err := k.Call(k.Node(), msg.KindPing+1, nil); err != nil {
						t.Errorf("nested call: %v", err)
					}
				case msg.KindPing + 1:
					if arrived.Add(1) == callers {
						release.Do(func() { close(all) })
					}
					<-all // every outer handler is blocked by now
				}
				k.Reply(req, nil)
			})
			// Warm the workers up first, so the burst below meets parked
			// workers, busy workers and none at all.
			for i := 0; i < 2*handlerWorkers; i++ {
				if _, err := ks[0].Call(1, msg.KindPing+2, nil); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := ks[0].Call(1, msg.KindPing, nil); err != nil {
							t.Errorf("call: %v", err)
						}
					}()
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Errorf("blocked handlers starved the requests that would unblock them: %d of %d inner handlers running",
					arrived.Load(), callers)
				release.Do(func() { close(all) }) // let the kernels shut down
			}
		})
	}
}

// TestCloseLeavesNoGoroutines: the handler workers are the kernel's and
// exit with it — after Close and Wait nothing it started is left.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	net := transport.NewChanNetwork(2, transport.CostModel{})
	k0, k1 := New(net, 0), New(net, 1)
	k1.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) { k.Reply(req, nil) })
	for i := 0; i < 4*handlerWorkers; i++ {
		if _, err := k0.Call(1, msg.KindPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	k0.Close()
	k1.Close()
	net.Close()
	k0.Wait()
	k1.Wait()
	// Wait returns when a goroutine's last deferred call has run, a
	// moment before the runtime has retired it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after Close and Wait", before, after)
	}
}

func TestOverlappingHandlerRangePanics(t *testing.T) {
	ks, _ := newTestKernels(t, 1)
	ks[0].Handle(msg.KindLockBase, msg.KindLockBase+10, func(*Kernel, *msg.Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Handle did not panic")
		}
	}()
	ks[0].Handle(msg.KindLockBase+5, msg.KindLockBase+20, func(*Kernel, *msg.Msg) {})
}

func TestCallAfterCloseFails(t *testing.T) {
	net := transport.NewChanNetwork(2, transport.CostModel{})
	k0 := New(net, 0)
	k1 := New(net, 1)
	_ = k1
	k0.Close()
	if _, err := k0.Call(1, msg.KindPing, nil); !errors.Is(err, errClosed) {
		t.Fatalf("err = %v, want errClosed", err)
	}
	net.Close()
	k0.Wait()
	k1.Wait()
}

func TestPendingCallFailsOnClose(t *testing.T) {
	net := transport.NewChanNetwork(2, transport.CostModel{})
	k0 := New(net, 0)
	k1 := New(net, 1)
	// Node 1 never replies.
	k1.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {})
	errc := make(chan error, 1)
	go func() {
		_, err := k0.Call(1, msg.KindPing, nil)
		errc <- err
	}()
	k0.Close()
	if err := <-errc; !errors.Is(err, errClosed) {
		t.Fatalf("err = %v, want errClosed", err)
	}
	net.Close()
	k0.Wait()
	k1.Wait()
}

func TestHandlerRangeDispatch(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	hits := make(chan string, 2)
	ks[1].Handle(msg.KindLockBase, msg.KindLockBase+0xff, func(k *Kernel, req *msg.Msg) {
		hits <- "lock"
		k.Reply(req, nil)
	})
	ks[1].Handle(msg.KindCohBase, msg.KindCohBase+0xff, func(k *Kernel, req *msg.Msg) {
		hits <- "coh"
		k.Reply(req, nil)
	})
	if _, err := ks[0].Call(1, msg.KindCohBase+7, nil); err != nil {
		t.Fatal(err)
	}
	if got := <-hits; got != "coh" {
		t.Fatalf("dispatched to %q, want coh", got)
	}
	if _, err := ks[0].Call(1, msg.KindLockBase+3, nil); err != nil {
		t.Fatal(err)
	}
	if got := <-hits; got != "lock" {
		t.Fatalf("dispatched to %q, want lock", got)
	}
}

// newMeshKernels builds a live two-process-shaped mesh inside this test
// process: two MeshNetworks over real loopback TCP, one kernel each.
func newMeshKernels(t *testing.T) (k0, k1 *Kernel, net0, net1 *transport.MeshNetwork) {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	net0, err = transport.NewMeshNetwork(transport.Topology{Self: 0, Peers: peers}, transport.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	net1, err = transport.NewMeshNetwork(transport.Topology{Self: 1, Peers: peers}, transport.CostModel{})
	if err != nil {
		net0.Close()
		t.Fatal(err)
	}
	k0 = New(net0, 0)
	k1 = New(net1, 1)
	t.Cleanup(func() {
		k0.Close()
		k1.Close()
		net0.Close()
		net1.Close()
		k0.Wait()
		k1.Wait()
	})
	return k0, k1, net0, net1
}

// TestBlockedCallFailsWithErrPeerDownOnWireDeath is the ROADMAP's
// wire-death acceptance shape: a Call blocked on a reply returns
// a peer-down error (transport.PeerDownOf) promptly (well under a second) when the
// peer's connection dies mid-call, instead of hanging until Close.
func TestBlockedCallFailsWithErrPeerDownOnWireDeath(t *testing.T) {
	k0, k1, net0, _ := newMeshKernels(t)

	received := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	k0.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		close(received)
		<-release // never replies while the test runs
	})

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	res := make(chan outcome, 1)
	go func() {
		start := time.Now()
		_, err := k1.Call(0, msg.KindPing, []byte("stuck"))
		res <- outcome{err: err, elapsed: time.Since(start)}
	}()

	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached node 0")
	}
	// Kill node 0's side of the wire abruptly while the call is
	// blocked — no goodbye, so this is wire death, not departure.
	killAt := time.Now()
	net0.Kill()

	select {
	case out := <-res:
		if peer, down := transport.PeerDownOf(out.err); !down || peer != 0 {
			t.Fatalf("blocked call returned %v, want node 0's peer-down error", out.err)
		}
		if waited := time.Since(killAt); waited > time.Second {
			t.Fatalf("call took %v after the wire died, want < 1s", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked call never returned after the wire died")
	}
	if got := k1.ctr.CallFailedPeer.Load(); got != 1 {
		t.Fatalf("call.failed_peer = %d, want 1", got)
	}
}

// TestReplyBeatsLatePeerDeath: a call whose reply already arrived is
// not failed when its peer dies afterwards.
func TestReplyBeatsLatePeerDeath(t *testing.T) {
	k0, k1, net0, _ := newMeshKernels(t)
	k0.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, []byte("ok"))
	})
	reply, err := k1.Call(0, msg.KindPing, nil)
	if err != nil || string(reply.Payload) != "ok" {
		t.Fatalf("call: %v, %v", reply, err)
	}
	net0.Close()
	// The completed call is untouched; only the counter stays zero.
	if got := k1.ctr.CallFailedPeer.Load(); got != 0 {
		t.Fatalf("call.failed_peer = %d after a completed call, want 0", got)
	}
}

// TestGoodbyeDeliversReplyAndFailsOnlyUnanswered is the reply-vs-EOF
// race the goodbye protocol closes, in miniature: node 0 replies to
// one call and departs IMMEDIATELY, with the reply still in flight,
// while a second call it never answered stays pending. The answered
// call must receive its reply — never a latch error — and exactly the
// unanswered call fails, with a peer-gone error (transport.PeerGoneOf) and
// counted as call.failed_gone.
func TestGoodbyeDeliversReplyAndFailsOnlyUnanswered(t *testing.T) {
	k0, k1, net0, _ := newMeshKernels(t)

	parkedArrived := make(chan struct{})
	k0.Handle(msg.KindPing+1, msg.KindPing+1, func(k *Kernel, req *msg.Msg) {
		close(parkedArrived) // never replies
	})
	replied := make(chan struct{})
	k0.Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		k.Reply(req, []byte("bye"))
		close(replied)
	})

	parkedRes := make(chan error, 1)
	go func() {
		_, err := k1.Call(0, msg.KindPing+1, nil)
		parkedRes <- err
	}()
	select {
	case <-parkedArrived:
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never arrived")
	}

	answeredRes := make(chan error, 1)
	var reply *msg.Msg
	go func() {
		var err error
		reply, err = k1.Call(0, msg.KindPing, nil)
		answeredRes <- err
	}()
	// Close node 0 the instant the reply is enqueued — the goodbye
	// drain must carry it out before the departure latches.
	<-replied
	net0.Close()

	select {
	case err := <-answeredRes:
		if err != nil || string(reply.Payload) != "bye" {
			t.Fatalf("answered call lost its reply to the departure: %v, %v", reply, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("answered call never returned")
	}
	select {
	case err := <-parkedRes:
		if peer, gone := transport.PeerGoneOf(err); !gone || peer != 0 {
			t.Fatalf("unanswered call = %v, want node 0's peer-gone error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unanswered call never failed after the departure")
	}
	if got := k1.ctr.CallFailedGone.Load(); got != 1 {
		t.Fatalf("call.failed_gone = %d, want 1", got)
	}
	if got := k1.ctr.CallFailedPeer.Load(); got != 0 {
		t.Fatalf("call.failed_peer = %d after a clean departure, want 0", got)
	}
}

// TestForwardedReplyCompletesOriginalCall pins the contract Forward
// rests on: a call is completed by its Seq alone, so the reply of a node
// the request was forwarded to — a node the caller never addressed —
// answers it, and the forwarder keeps no record of the call. Over tcp as
// well as chan, because the tcp reader drops a frame whose From is not
// the connection's peer: the test fails there if Forward put the caller
// in the header's From instead of the payload, and on both transports if
// the dispatcher matched a reply's sender against the call's
// destination.
func TestForwardedReplyCompletesOriginalCall(t *testing.T) {
	for _, wire := range []string{"chan", "tcp"} {
		t.Run(wire, func(t *testing.T) {
			var net transport.Network = transport.NewChanNetwork(3, transport.CostModel{})
			if wire == "tcp" {
				tn, err := transport.NewTCPNetwork(3, transport.CostModel{})
				if err != nil {
					t.Fatal(err)
				}
				net = tn
			}
			ks := make([]*Kernel, 3)
			for i := range ks {
				ks[i] = NewUnstarted(net, msg.NodeID(i))
			}
			defer func() {
				net.Close()
				for _, k := range ks {
					k.Wait()
				}
			}()
			const kindServe = msg.KindPing + 1
			ks[1].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
				if err := k.Forward(req, 2, kindServe, append([]byte("via1:"), req.Payload...)); err != nil {
					t.Errorf("forward: %v", err)
				}
				if len(req.Payload) > 1 {
					// The forwarder may still answer; whichever reply is
					// second finds the call gone.
					k.Reply(req, []byte("refused"))
				}
			})
			ks[2].Handle(kindServe, kindServe, func(k *Kernel, req *msg.Msg) {
				if req.From != 0 {
					t.Errorf("forwarded request shows From = %d, want the caller 0", req.From)
				}
				k.Reply(req, append([]byte("served:"), req.Payload...))
			})
			for _, k := range ks {
				k.Start()
			}

			reply, err := ks[0].Call(1, msg.KindPing, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			if got := string(reply.Payload); got != "served:via1:x" || reply.From != 2 {
				t.Fatalf("reply = %q from node %d, want %q from node 2", got, reply.From, "served:via1:x")
			}
			ks[1].mu.Lock()
			held := len(ks[1].pending)
			ks[1].mu.Unlock()
			if held != 0 {
				t.Fatalf("the forwarder holds %d pending calls, want 0", held)
			}

			// Two replies to one call: exactly one is delivered, the other
			// is a counted stray once both have been dispatched.
			reply, err = ks[0].Call(1, msg.KindPing, []byte("xy"))
			if err != nil {
				t.Fatal(err)
			}
			if got := string(reply.Payload); got != "refused" && got != "served:via1:xy" {
				t.Fatalf("reply = %q, want the forwarder's or the server's", got)
			}
			deadline := time.Now().Add(5 * time.Second)
			for ks[0].ctr.DropStrayReply.Load() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("drop.stray_reply = %d, want 1", ks[0].ctr.DropStrayReply.Load())
				}
				time.Sleep(time.Millisecond)
			}

			// A forward that names no node of the cluster is dropped and
			// counted, and the kernel carries on.
			if err := ks[1].Forward(&msg.Msg{From: 7, Seq: 1}, 2, kindServe, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := ks[0].Call(1, msg.KindPing, []byte("z")); err != nil {
				t.Fatal(err)
			}
			if got := ks[2].ctr.DropUnhandled.Load(); got != 1 {
				t.Fatalf("drop.unhandled at the server = %d, want 1", got)
			}
		})
	}
}

// TestForwardedCallFailsWhenHomeDies: what fails a forwarded call is the
// loss of the node it was addressed to. The caller's kernel knows no
// other destination, so when the forwarder's wire dies while the third
// node still sits on the request, the call returns a peer-down error naming
// the forwarder — promptly, not at Close. It hangs if a forwarded call
// were taken out of the peer-down sweep (say, by re-addressing the
// Pending to the node that will answer).
func TestForwardedCallFailsWhenHomeDies(t *testing.T) {
	addrs, err := netutil.ReserveAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}
	nets := make([]*transport.MeshNetwork, 3)
	ks := make([]*Kernel, 3)
	for i := range nets {
		nets[i], err = transport.NewMeshNetwork(transport.Topology{Self: msg.NodeID(i), Peers: peers}, transport.CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = NewUnstarted(nets[i], msg.NodeID(i))
	}
	t.Cleanup(func() {
		for i := range nets {
			ks[i].Close()
			nets[i].Close()
			ks[i].Wait()
		}
	})
	const kindServe = msg.KindPing + 1
	ks[0].Handle(msg.KindPing, msg.KindPing, func(k *Kernel, req *msg.Msg) {
		if err := k.Forward(req, 2, kindServe, nil); err != nil {
			t.Errorf("forward: %v", err)
		}
	})
	arrived := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	ks[2].Handle(kindServe, kindServe, func(k *Kernel, req *msg.Msg) {
		close(arrived)
		<-release // sits on the request for as long as the test runs
	})
	for _, k := range ks {
		k.Start()
	}

	res := make(chan error, 1)
	go func() {
		_, err := ks[1].Call(0, msg.KindPing, nil)
		res <- err
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the forwarded request never reached node 2")
	}
	nets[0].Kill()
	select {
	case err := <-res:
		if peer, down := transport.PeerDownOf(err); !down || peer != 0 {
			t.Fatalf("forwarded call returned %v, want node 0's peer-down error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded call never returned after the forwarder died")
	}
}

// TestIsClosedSeesThroughWrapping: a call on a closed kernel fails with
// the error IsClosed matches, however the caller wraps it.
func TestIsClosedSeesThroughWrapping(t *testing.T) {
	ks, _ := newTestKernels(t, 2)
	ks[0].Close()
	_, err := ks[0].Call(1, msg.KindPing, nil)
	if !IsClosed(err) || !IsClosed(fmt.Errorf("flush: %w", err)) || IsClosed(fmt.Errorf("flush: %v", err)) {
		t.Fatalf("call on a closed kernel: %v; IsClosed must match it through %%w only", err)
	}
}

// TestDoneClosesWithTheKernel: Done is open and Err nil while the kernel
// runs; Close closes Done, and Err is then the close error.
func TestDoneClosesWithTheKernel(t *testing.T) {
	ks, _ := newTestKernels(t, 1)
	select {
	case <-ks[0].Done():
		t.Fatal("Done closed on a running kernel")
	default:
	}
	if err := ks[0].Err(); err != nil {
		t.Fatalf("Err = %v on a running kernel, want nil", err)
	}
	ks[0].Close()
	<-ks[0].Done()
	if err := ks[0].Err(); !IsClosed(err) {
		t.Fatalf("Err = %v after Close, want the close error", err)
	}
}
