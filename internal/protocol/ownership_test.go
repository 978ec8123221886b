package protocol

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/stats"
	"munin/internal/transport"
)

// Oracles for the ownership protocol's two message sequences — the
// data-free upgrade and the forwarded read fault — and for the races each
// must close. Every test names the mutation that makes it fail.

// onBothWires runs body over the in-process queues and over loopback
// sockets: the forwarded reply travels owner-to-reader on a connection
// that shares no order with the home's, which only tcp has. body builds
// its rig with mk, after it has set its hooks.
func onBothWires(t *testing.T, body func(t *testing.T, mk func(*testing.T, int) *rig)) {
	t.Run("chan", func(t *testing.T) { body(t, newRig) })
	t.Run("tcp", func(t *testing.T) { body(t, newTCPRig) })
}

// setHook points a test hook at v until the test ends. It must be called
// before the test builds its cluster: the handler goroutines that read the
// hook are then started after it is set and — cleanups run last in, first
// out — have exited before it is cleared, which over sockets is the only
// order between them and the test that the race detector can see.
func setHook[T any](t *testing.T, hook *T, v T) {
	*hook = v
	t.Cleanup(func() {
		var none T
		*hook = none
	})
}

// within fails the test if f has not returned inside the bound: a lost
// reply parks a faulting thread for good, and the test should say which
// step hung, not wait for go test's timeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete within 10s", what)
	}
}

// TestFaultRoundCosts7MessagesAndOneCopy is the `fault` workload's shape
// on 3 nodes: a writer and a reader away from the home swap roles every
// round. In steady state a round costs exactly 7 coherence messages —
// upgrade request, invalidation and its ack, data-free grant; read
// request, forward, data — and the object crosses the wire once. It
// fails with 8 messages and three copies if reads are relayed through the
// home (fetch, write-back, reply) or with two copies if an upgrade from a
// valid copy is sent the bytes again.
func TestFaultRoundCosts7MessagesAndOneCopy(t *testing.T) {
	const size = 4096
	// By hand, 24-byte headers: request 29 (ID + vouch), invalidation 28,
	// ack 24, grant 25 (no data), read 28, forward 32 (caller + ID), data
	// 24 + 2 (length) + 4096 + 8 (sequence).
	const roundBytes = 29 + 28 + 24 + 25 + 28 + 32 + (24 + 2 + size + 8)
	for _, annot := range []Annotation{Conventional, GeneralRW} {
		onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
			r := mk(t, 3)
			opts := DefaultOptions()
			opts.Home = 2
			r.alloc(1, "o", size, annot, opts, nil)
			q := duq.New()
			buf := make([]byte, size)
			round := func(i int) {
				writer, reader := r.nodes[i%2], r.nodes[1-i%2]
				writer.Write(q, 1, 8, u64bytes(uint64(i)))
				reader.Read(q, 1, 0, buf)
				if got := binary.BigEndian.Uint64(buf[8:]); got != uint64(i) {
					t.Fatalf("%v round %d: reader sees %d", annot, i, got)
				}
			}
			// Round 0 moves the object off the home with its bytes; from
			// round 1 on both nodes hold what the other needs.
			round(0)
			round(1)
			st := r.c.Stats()
			m0, b0 := st.Messages(), st.Bytes()
			const rounds = 10
			for i := 2; i < 2+rounds; i++ {
				round(i)
			}
			if got := st.Messages() - m0; got != 7*rounds {
				t.Errorf("%v: %d messages over %d rounds, want 7 a round", annot, got, rounds)
			}
			if got := st.Bytes() - b0; got != roundBytes*rounds {
				t.Errorf("%v: %d bytes over %d rounds, want %d a round (one %d-byte copy)",
					annot, got, rounds, roundBytes, size)
			}
			home := r.nodes[2]
			if got := home.C.Get(stats.CHomeFetch); got != 0 {
				t.Errorf("%v: home.fetch = %d, want 0: no round moved bytes through the home", annot, got)
			}
			if got := home.C.Get(stats.CFwdRead); got != 2+rounds {
				t.Errorf("%v: fwd.read = %d, want %d", annot, got, 2+rounds)
			}
		})
	}
}

// ownerRig is a 4-node rig with one object homed on node 3 and owned by
// node 0, which wrote first into it: roles stay apart — owner 0, reader
// 1, a third writer 2, home 3.
func ownerRig(t *testing.T, r *rig, first uint64) (owner, reader, third *Node) {
	t.Helper()
	opts := DefaultOptions()
	opts.Home = 3
	r.alloc(1, "o", 16, Conventional, opts, nil)
	r.nodes[0].Write(duq.New(), 1, 0, u64bytes(first))
	return r.nodes[0], r.nodes[1], r.nodes[2]
}

// parkFirst returns a testHookFwdRead that parks the first call made at
// the given stage until release is closed, announcing it on parked.
func parkFirst(stage string) (hook func(string), parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(s string) {
		if s == stage {
			once.Do(func() { close(parked); <-release })
		}
	}, parked, release
}

// TestInvalidationOvertakingForwardedReadRetries: the owner's reply to a
// forwarded read is held while a third node takes the object and writes;
// the home's invalidation reaches the reader first, on another
// connection. The reader must discard the overtaken bytes and return the
// new value, counting one fetch.retry. It returns the old value if
// ensureReadable installed a forwarded reply without comparing genInv.
func TestInvalidationOvertakingForwardedReadRetries(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		hook, parked, release := parkFirst("served")
		setHook(t, &testHookFwdRead, hook)
		r := mk(t, 4)
		_, reader, third := ownerRig(t, r, 1)

		got := make(chan uint64, 1)
		go func() { got <- readU64(reader, duq.New(), 1, 0) }()
		<-parked // the owner has encoded value 1 for the reader
		within(t, "the third node's write", func() { third.Write(duq.New(), 1, 0, u64bytes(2)) })
		close(release)
		select {
		case v := <-got:
			if v != 2 {
				t.Fatalf("reader returned %d, want 2: it installed bytes an invalidation had overtaken", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the read never completed")
		}
		if n := reader.C.Get(stats.CFetchRetry); n != 1 {
			t.Fatalf("fetch.retry = %d, want 1", n)
		}
	})
}

// TestForwardAfterOwnershipMovedIsNacked: the forward itself is held at
// the old owner until a third node has taken the object away. The old
// owner, its copy Invalid, must answer with the retry nack, and the
// reader's second request is forwarded to the new owner. The read hangs
// if the owner drops a forward it cannot serve; if it serves the bytes of
// its Invalid copy instead, the reader's generation check discards them
// and only the missing nack shows.
func TestForwardAfterOwnershipMovedIsNacked(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		hook, parked, release := parkFirst("arrived")
		setHook(t, &testHookFwdRead, hook)
		r := mk(t, 4)
		owner, reader, third := ownerRig(t, r, 1)

		got := make(chan uint64, 1)
		go func() { got <- readU64(reader, duq.New(), 1, 0) }()
		<-parked
		within(t, "the third node's write", func() { third.Write(duq.New(), 1, 0, u64bytes(2)) })
		close(release)
		select {
		case v := <-got:
			if v != 2 {
				t.Fatalf("reader returned %d, want 2", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the read never completed: the forward was neither served nor nacked")
		}
		if n := owner.C.Get(stats.CFwdNack); n != 1 {
			t.Fatalf("fwd.nack at the old owner = %d, want 1", n)
		}
		if n := r.nodes[3].C.Get(stats.CFwdRead); n != 2 {
			t.Fatalf("fwd.read at the home = %d, want 2 (old owner, then new)", n)
		}
	})
}

// parkWriteOwnOf returns a testHookWriteOwnBuilt that parks node's first
// ownership request between vouching for its copy and sending. The hook
// runs on the writing thread, which the test starts and joins, so it may
// be set once the rig exists.
func parkWriteOwnOf(node *Node) (hook func(*Node), parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(n *Node) {
		if n == node {
			once.Do(func() { close(parked); <-release })
		}
	}, parked, release
}

// TestDataFreeGrantNeverLandsOnAnInvalidatedCopy: two holders of a valid
// copy upgrade at once. The loser vouched for its copy before the
// winner's round invalidated it, so its request still says "valid" when
// the home takes it up — but it is no longer in the copy set, and it must
// be sent the bytes. It keeps a stale word (the winner's write missing)
// if handleWriteOwn trusts the vouch alone.
func TestDataFreeGrantNeverLandsOnAnInvalidatedCopy(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		r := mk(t, 3)
		opts := DefaultOptions()
		opts.Home = 2
		r.alloc(1, "o", 16, Conventional, opts, nil)
		winner, loser, home := r.nodes[0], r.nodes[1], r.nodes[2]
		readU64(winner, duq.New(), 1, 0)
		readU64(loser, duq.New(), 1, 0)

		hook, parked, release := parkWriteOwnOf(loser)
		setHook(t, &testHookWriteOwnBuilt, hook)
		done := make(chan struct{})
		go func() { defer close(done); loser.Write(duq.New(), 1, 0, u64bytes(7)) }()
		<-parked // the loser has vouched for its copy
		within(t, "the winner's write", func() { winner.Write(duq.New(), 1, 8, u64bytes(9)) })
		close(release)
		within(t, "the loser's write", func() { <-done })

		q := duq.New()
		if a, b := readU64(loser, q, 1, 0), readU64(loser, q, 1, 8); a != 7 || b != 9 {
			t.Fatalf("the loser holds (%d, %d), want (7, 9): its grant carried no bytes", a, b)
		}
		if n := home.C.Get(stats.CHomeFetch); n != 1 {
			t.Fatalf("home.fetch = %d, want 1: the loser's bytes come from the winner", n)
		}
	})
}

// TestReadFaultWaitsForOwnershipRequest is the other half of "one fault
// per object from a node at a time": while a node's ownership request is
// out — vouched, then invalidated by a rival's write — a co-located
// thread's read fault must wait for the grant. If it went to the home it
// would put the node back in the copy set before the request is taken
// up, the home would believe the vouch, and the grant would land without
// data on a copy whose refetch (held here at the rival) has not arrived:
// the rival's write is lost.
func TestReadFaultWaitsForOwnershipRequest(t *testing.T) {
	fwdHook, forwarded, serveIt := parkFirst("arrived")
	setHook(t, &testHookFwdRead, fwdHook)
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 2
	r.alloc(1, "o", 16, Conventional, opts, nil)
	rival, node := r.nodes[0], r.nodes[1]
	readU64(rival, duq.New(), 1, 0)
	readU64(node, duq.New(), 1, 0)
	ownHook, vouched, sendIt := parkWriteOwnOf(node)
	setHook(t, &testHookWriteOwnBuilt, ownHook)

	wrote := make(chan struct{})
	go func() { defer close(wrote); node.Write(duq.New(), 1, 0, u64bytes(7)) }()
	<-vouched
	within(t, "the rival's write", func() { rival.Write(duq.New(), 1, 8, u64bytes(9)) })
	read := make(chan uint64, 1)
	go func() { read <- readU64(node, duq.New(), 1, 8) }()
	select {
	case <-forwarded: // the read fault went out behind the request's back
	case <-time.After(20 * time.Millisecond): // long enough for one that does not wait
	}
	close(sendIt)
	within(t, "the node's write", func() { <-wrote })
	close(serveIt)
	within(t, "the node's read", func() {
		if v := <-read; v != 9 {
			t.Errorf("the co-located reader sees %d at offset 8, want the rival's 9", v)
		}
	})
	if a, b := readU64(node, duq.New(), 1, 0), readU64(node, duq.New(), 1, 8); a != 7 || b != 9 {
		t.Fatalf("the node holds (%d, %d), want (7, 9): a grant without data landed on an invalidated copy", a, b)
	}
}

// TestEvictWaitsForOwnershipRequest: a node's ownership request has told
// the home its copy is valid; Evict on that node must not retire the copy
// — nor, through kindEvict, its copy-set entry — until the request is
// answered, after which the node owns the object and there is nothing to
// evict. Without the wait Evict returns while the request is parked and
// counts an eviction.
func TestEvictWaitsForOwnershipRequest(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 2
	r.alloc(1, "o", 8, Conventional, opts, nil)
	other, node := r.nodes[0], r.nodes[1]
	readU64(other, duq.New(), 1, 0)
	readU64(node, duq.New(), 1, 0)

	hook, parked, release := parkWriteOwnOf(node)
	setHook(t, &testHookWriteOwnBuilt, hook)
	wrote := make(chan struct{})
	go func() { defer close(wrote); node.Write(duq.New(), 1, 0, u64bytes(5)) }()
	<-parked
	evicted := make(chan struct{})
	go func() { defer close(evicted); node.Evict(1) }()
	select {
	case <-evicted:
		t.Fatal("Evict returned while an ownership request had vouched for the copy")
	case <-time.After(20 * time.Millisecond): // long enough for an Evict that does not wait
	}
	close(release)
	within(t, "the write and the eviction", func() { <-wrote; <-evicted })
	if n := node.C.Get(stats.CEvict); n != 0 {
		t.Fatalf("evict = %d, want 0: the node owns the object once its request is granted", n)
	}
	// The directory still knows the owner: another node's write finds and
	// retires it.
	other.Write(duq.New(), 1, 0, u64bytes(6))
	if v := readU64(node, duq.New(), 1, 0); v != 6 {
		t.Fatalf("after the other node's write the node reads %d, want 6", v)
	}
}

// TestInvalidationRoundIsConcurrent: three sharers' kindInv handlers are
// each held until all three have arrived. A round that starts every
// invalidation before awaiting any completes; one that calls the sharers
// one after another never gets the second invalidation out.
func TestInvalidationRoundIsConcurrent(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(3)
	setHook(t, &testHookInv, func() { arrived.Done(); arrived.Wait() })
	r := newRig(t, 4)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(1, "o", 8, Conventional, opts, nil)
	for _, sharer := range r.nodes[1:] {
		readU64(sharer, duq.New(), 1, 0)
	}
	within(t, "a write that invalidates three sharers", func() {
		r.nodes[0].Write(duq.New(), 1, 0, u64bytes(1))
	})
	if n := r.nodes[0].C.Get(stats.CHomeInv); n != 3 {
		t.Fatalf("home.inv = %d, want 3", n)
	}
}

// meshMember is one in-process member of a three-member loopback mesh,
// wired the way internal/core wires the SPMD runtime.
type meshMember struct {
	clu  *cluster.Cluster
	node *Node
}

func newMeshMembers(t *testing.T, n int) []meshMember {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make(map[msg.NodeID]string, n)
	for i, a := range addrs {
		peers[msg.NodeID(i)] = a
	}
	members := make([]meshMember, n)
	for i := range members {
		topo := transport.Topology{Self: msg.NodeID(i), Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		k := clu.Kernel(msg.NodeID(i))
		node := NewNode(k, dlock.NewService(k))
		clu.OnPeerGone(func(peer msg.NodeID, _ error) { node.PeerGone(peer) })
		clu.Network().(transport.PeerDownNotifier).OnPeerDown(func(peer msg.NodeID, _ uint64, _ error) { node.PeerDown(peer) })
		clu.Start()
		members[i] = meshMember{clu, node}
	}
	return members
}

// TestLostForwardeeFailsOrRetriesTheReader: the owner is lost between the
// home's forward and its own reply. The home awaits nothing from the
// owner — the reader does, through a call addressed to the home — so the
// home must answer for it: after a wire death the reader's fault fails
// with the typed *transport.ErrPeerDown naming the owner, after a clean
// departure the reader is told to ask again and is served the copy the
// home took back. Neither panics the home. The read hangs if the home
// keeps no note of what it forwarded (or PeerDown/PeerGone do not consult
// it).
func TestLostForwardeeFailsOrRetriesTheReader(t *testing.T) {
	for _, loss := range []string{"killed", "departed"} {
		t.Run(loss, func(t *testing.T) {
			hook, parked, release := parkFirst("arrived")
			setHook(t, &testHookFwdRead, hook)
			m := newMeshMembers(t, 3)
			home, reader, owner := m[0], m[1], m[2]
			opts := DefaultOptions()
			opts.Home = 0
			meta := Meta{ID: 1, Name: "conv", Size: 8, Annot: Conventional, Opts: opts}
			for _, mm := range m {
				mm.node.InstallLocal(meta, u64bytes(3))
			}
			owner.node.Write(duq.New(), 1, 0, u64bytes(4))

			type outcome struct {
				v        uint64
				panicked any
			}
			res := make(chan outcome, 1)
			go func() {
				var out outcome
				defer func() { out.panicked = recover(); res <- out }()
				out.v = readU64(reader.node, duq.New(), 1, 0)
			}()
			<-parked // the forward is at the owner, unanswered
			gone := make(chan struct{})
			go func() {
				defer close(gone)
				if loss == "killed" {
					owner.clu.Kill()
				} else {
					owner.clu.Close()
				}
			}()
			// The owner's handler stays parked past the verdict: nothing it
			// does afterwards can be what completes the read.
			defer func() {
				close(release)
				<-gone
				reader.clu.Close()
				home.clu.Close()
			}()

			select {
			case out := <-res:
				if loss == "killed" {
					want := (&transport.ErrPeerDown{Node: 2}).Error()
					want = want[:strings.Index(want, "down")+len("down")]
					if s := fmt.Sprint(out.panicked); !strings.Contains(s, want) {
						t.Fatalf("read after the owner's death: value %d, panic %q; want a panic carrying %q", out.v, s, want)
					}
					return
				}
				if out.panicked != nil || out.v != 3 {
					t.Fatalf("read after the owner's departure: value %d, panic %v; want the home's copy, 3", out.v, out.panicked)
				}
				if n := home.node.C.Get(stats.CMemberReclaimedOwner); n != 1 {
					t.Fatalf("member.reclaimed_owner = %d, want 1", n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the read neither completed nor failed: nobody answered for the lost owner")
			}
		})
	}
}
