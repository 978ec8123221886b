package transport

import (
	"bytes"
	"testing"

	"munin/internal/msg"
)

// recvFixture is three nodes of one transport seen through what the
// hand-over test needs: node 0 sends, nodes 1 and 2 receive.
type recvFixture struct {
	send  Endpoint
	recv  [2]Endpoint
	mcast func(m *msg.Msg, members []msg.NodeID) error
	stats *Stats // node 0's side
	// hold/release pause node 0's writer towards node 1, so that what
	// is sent in between leaves as one coalesced frame. nil where there
	// is no wire to coalesce on.
	hold, release func()
}

func recvFixtures(t *testing.T) map[string]recvFixture {
	t.Helper()
	cn := NewChanNetwork(3, CostModel{})
	t.Cleanup(func() { cn.Close() })

	tn, err := NewTCPNetwork(3, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.Close() })
	tq := tn.eps[0].peers[1].q

	addrs := reserveAddrs(t, 3)
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}
	var mesh [3]*MeshNetwork
	for i := range mesh {
		m, err := NewMeshNetwork(Topology{Self: msg.NodeID(i), Peers: peers}, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		mesh[i] = m
	}
	mq := mesh[0].peer(1).q

	return map[string]recvFixture{
		"chan": {send: cn.Endpoint(0), recv: [2]Endpoint{cn.Endpoint(1), cn.Endpoint(2)}, mcast: cn.Multicast, stats: cn.Stats()},
		"tcp": {send: tn.Endpoint(0), recv: [2]Endpoint{tn.Endpoint(1), tn.Endpoint(2)}, mcast: tn.Multicast,
			stats: tn.Stats(), hold: tq.hold, release: tq.release},
		"mesh": {send: mesh[0].Endpoint(0), recv: [2]Endpoint{mesh[1].Endpoint(1), mesh[2].Endpoint(2)}, mcast: mesh[0].Multicast,
			stats: mesh[0].Stats(), hold: mq.hold, release: mq.release},
	}
}

// TestRecvHandsOverExclusiveBuffer pins the Endpoint.Recv contract the
// vkernel dispatcher and every handler rely on to keep a payload without
// copying it: the bytes belong to the receiver alone. A payload held
// across 200 later messages of the same size — sent one by one and as
// coalesced frames — never changes, and the members of a multicast get
// payloads that do not alias each other.
func TestRecvHandsOverExclusiveBuffer(t *testing.T) {
	const size = 1024
	for name, f := range recvFixtures(t) {
		t.Run(name, func(t *testing.T) {
			payload := make([]byte, size)
			sendFilled := func(fill byte) {
				t.Helper()
				for i := range payload {
					payload[i] = fill
				}
				// Send serializes before returning, so reusing payload for
				// the next message is part of what is under test.
				if err := f.send.Send(&msg.Msg{Kind: msg.KindPing, To: 1, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
			recvFilled := func(ep Endpoint, fill byte) []byte {
				t.Helper()
				m, err := ep.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if want := bytes.Repeat([]byte{fill}, size); !bytes.Equal(m.Payload, want) {
					t.Fatalf("payload of message %#x arrived damaged", fill)
				}
				return m.Payload
			}

			sendFilled(0xA5)
			held := recvFilled(f.recv[0], 0xA5)
			want := bytes.Clone(held)

			for i := 0; i < 100; i++ {
				sendFilled(byte(i))
				recvFilled(f.recv[0], byte(i))
			}
			if f.hold != nil {
				f.hold()
			}
			for i := 0; i < 100; i++ {
				sendFilled(byte(i))
			}
			if f.hold != nil {
				f.release()
			}
			for i := 0; i < 100; i++ {
				recvFilled(f.recv[0], byte(i))
			}
			// The fence orders the writer's accounting before the check.
			if err := f.send.Flush(); err != nil {
				t.Fatal(err)
			}
			if f.hold != nil && f.stats.WireCoalesced() == 0 {
				t.Fatal("the staged batch did not leave as a coalesced frame")
			}

			for i := range payload {
				payload[i] = 0x3C
			}
			if err := f.mcast(&msg.Msg{Kind: msg.KindPing, From: 0, Payload: payload}, []msg.NodeID{1, 2}); err != nil {
				t.Fatal(err)
			}
			p1, p2 := recvFilled(f.recv[0], 0x3C), recvFilled(f.recv[1], 0x3C)
			for i := range p1 {
				p1[i] = 0xFF
			}
			if want := bytes.Repeat([]byte{0x3C}, size); !bytes.Equal(p2, want) {
				t.Fatal("multicast members' payloads alias each other")
			}

			if !bytes.Equal(held, want) {
				t.Fatal("a held payload changed under later traffic: Recv lent the buffer instead of handing it over")
			}
		})
	}
}

// TestQueuePingPongDoesNotAllocate pins the receive queue's steady
// state: a queue that alternates between empty and one item — every
// request/reply exchange — reuses its slot instead of reallocating the
// backing array on each push.
func TestQueuePingPongDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	q := newQueue()
	m := &msg.Msg{Kind: msg.KindPing}
	step := func() {
		if err := q.push(m); err != nil {
			t.Fatal(err)
		}
		if it, err := q.pop(); err != nil || it.m != m {
			t.Fatalf("pop = %v, %v", it.m, err)
		}
	}
	step() // the first push allocates the slot
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Fatalf("alternating push/pop allocated %v times per pair, want 0", allocs)
	}
}

// TestQueueBacklogStaysBounded covers the other regime: a queue that
// never runs empty must not let popped slots pile up in front of the
// live ones.
func TestQueueBacklogStaysBounded(t *testing.T) {
	q := newQueue()
	msgs := make([]*msg.Msg, 8)
	for i := range msgs {
		msgs[i] = &msg.Msg{Seq: uint64(i)}
		q.push(msgs[i])
	}
	for i := 0; i < 10000; i++ {
		it, err := q.pop()
		if err != nil || it.m != msgs[i%len(msgs)] {
			t.Fatalf("pop %d out of order: %v, %v", i, it.m, err)
		}
		q.push(it.m)
	}
	if c := cap(q.items); c > 4*len(msgs) {
		t.Fatalf("queue holding %d items grew to capacity %d", len(msgs), c)
	}
}
