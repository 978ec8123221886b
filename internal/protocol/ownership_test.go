package protocol

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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

// TestFaultRoundCosts6MessagesAndOneCopy is the `fault` workload's shape
// on 3 nodes: a writer and a reader away from the home swap roles every
// round. In steady state a round costs exactly 6 coherence messages —
// upgrade request, its forward to the old owner, the old owner's
// data-free grant; read request, forward, data — and the object crosses
// the wire once. It fails with 7 messages if the home retires the old
// owner with an invalidation and grants the upgrade itself, with 8 and
// three copies if reads are relayed through the home (fetch, write-back,
// reply), or with two copies if an upgrade from a valid copy is sent the
// bytes again.
func TestFaultRoundCosts6MessagesAndOneCopy(t *testing.T) {
	const size = 4096
	// By hand, 24-byte headers: request 29 (ID + vouch), write forward 37
	// (caller + ID + period + vouch found good), grant 29 (flag + period,
	// no data), read 28, read forward 36 (caller + ID + period), data
	// 24 + 2 (length) + 4096 + 8 (sequence).
	const roundBytes = 29 + 37 + 29 + 28 + 36 + (24 + 2 + size + 8)
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
			if got := st.Messages() - m0; got != 6*rounds {
				t.Errorf("%v: %d messages over %d rounds, want 6 a round", annot, got, rounds)
			}
			if got := st.Bytes() - b0; got != roundBytes*rounds {
				t.Errorf("%v: %d bytes over %d rounds, want %d a round (one %d-byte copy)",
					annot, got, rounds, roundBytes, size)
			}
			home := r.nodes[2]
			if got := home.C.Get("fwd.read"); got != 2+rounds {
				t.Errorf("%v: fwd.read = %d, want %d", annot, got, 2+rounds)
			}
			if got := home.C.Get("fwd.write"); got != 1+rounds {
				t.Errorf("%v: fwd.write = %d, want %d", annot, got, 1+rounds)
			}
			if got := home.C.Get("home.inv"); got != 0 {
				t.Errorf("%v: home.inv = %d, want 0: the old owner is retired by the forward", annot, got)
			}
		})
	}
}

// TestWritePingPongCosts3MessagesAndOneCopy: two nodes away from the
// home take turns writing one 4 KB object and never read it, so every
// write finds no valid copy and the object moves with ownership. A
// transfer costs exactly 3 messages — request, its forward to the old
// owner, the old owner's grant with the bytes — and one copy. It fails
// with 4 messages and two copies if the home fetches the bytes from the
// old owner and grants them itself.
func TestWritePingPongCosts3MessagesAndOneCopy(t *testing.T) {
	const size = 4096
	// By hand, 24-byte headers: request 29 (ID + vouch), forward 37
	// (caller + ID + period + vouch found good), grant 24 + 1 (flag) + 4
	// (period) + 2 (length) + 4096.
	const transferBytes = 29 + 37 + (24 + 1 + 4 + 2 + size)
	for _, annot := range []Annotation{Conventional, GeneralRW} {
		onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
			r := mk(t, 3)
			opts := DefaultOptions()
			opts.Home = 2
			r.alloc(1, "o", size, annot, opts, nil)
			q := duq.New()
			write := func(i int) { r.nodes[i%2].Write(q, 1, 8*(i%2), u64bytes(uint64(i))) }
			// Write 0 takes the object off the home; from write 1 on the
			// old owner is always the other writer.
			write(0)
			write(1)
			st := r.c.Stats()
			m0, b0 := st.Messages(), st.Bytes()
			const transfers = 10
			for i := 2; i < 2+transfers; i++ {
				write(i)
			}
			if got := st.Messages() - m0; got != 3*transfers {
				t.Errorf("%v: %d messages over %d transfers, want 3 a transfer", annot, got, transfers)
			}
			if got := st.Bytes() - b0; got != transferBytes*transfers {
				t.Errorf("%v: %d bytes over %d transfers, want %d a transfer (one %d-byte copy)",
					annot, got, transfers, transferBytes, size)
			}
			last := 2 + transfers - 1
			if a, b := readU64(r.nodes[0], q, 1, 0), readU64(r.nodes[0], q, 1, 8); a != uint64(last-1) || b != uint64(last) {
				t.Fatalf("%v: node 0 reads (%d, %d), want (%d, %d)", annot, a, b, last-1, last)
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
		if n := owner.C.Get("fwd.nack"); n != 1 {
			t.Fatalf("fwd.nack at the old owner = %d, want 1", n)
		}
		if n := r.nodes[3].C.Get("fwd.read"); n != 2 {
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
		if n := home.C.Get("fwd.write"); n != 1 {
			t.Fatalf("fwd.write = %d, want 1: the loser's request goes to the winner", n)
		}
		if n := winner.C.Get("fetch.served"); n != 1 {
			t.Fatalf("fetch.served at the winner = %d, want 1: it grants the loser the bytes", n)
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
	if n := node.C.Get("evict"); n != 0 {
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
	if n := r.nodes[0].C.Get("home.inv"); n != 3 {
		t.Fatalf("home.inv = %d, want 3", n)
	}
}

// waitOrTimeout waits for ch, failing the test after the bound.
func waitOrTimeout(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not happen within 10s", what)
	}
}

// TestForwardedReadParksUntilTheGrant: the old owner's grant to a writer
// is held while a reader faults; the home, which already names the
// writer owner, forwards the read there, ahead of the grant. The writer
// must park the read until the grant is installed and then serve the
// written bytes. If it served its pre-grant copy (valid: it vouched for
// it) the reader would return the old value, and — in the copy set of a
// period whose owner writes with no fault — keep reading it afterwards.
func TestForwardedReadParksUntilTheGrant(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		// Hooks name nodes by ID, which is fixed before any handler runs.
		grantHeld, releaseGrant := make(chan struct{}), make(chan struct{})
		readArrived := make(chan struct{})
		var grantOnce, readOnce sync.Once
		var armed atomic.Bool // only the reader's fault, not the writer's setup read
		setHook(t, &testHookFwdWrite, func(n *Node, s string) {
			if n.ID() == 0 && s == "served" { // the owner's grant to the writer
				grantOnce.Do(func() { close(grantHeld); <-releaseGrant })
			}
		})
		setHook(t, &testHookFwdRead, func(s string) {
			if s == "arrived" && armed.Load() {
				readOnce.Do(func() { close(readArrived) })
			}
		})
		r := mk(t, 4)
		_, writer, reader := ownerRig(t, r, 1)
		readU64(writer, duq.New(), 1, 0) // a valid copy: the grant carries no data
		wrote := make(chan struct{})
		go func() { defer close(wrote); writer.Write(duq.New(), 1, 0, u64bytes(2)) }()
		waitOrTimeout(t, "the old owner's grant", grantHeld)
		armed.Store(true)
		got := make(chan uint64, 1)
		go func() { got <- readU64(reader, duq.New(), 1, 0) }()
		waitOrTimeout(t, "the read's forward to the writer", readArrived)
		time.Sleep(20 * time.Millisecond) // long enough for a forward that does not park
		close(releaseGrant)
		within(t, "the write", func() { <-wrote })
		within(t, "the read", func() {
			if v := <-got; v != 2 {
				t.Errorf("the reader returned %d, want 2: the writer served its pre-grant copy", v)
			}
		})
		if v := readU64(reader, duq.New(), 1, 0); v != 2 {
			t.Fatalf("the reader reads %d after the write completed, want 2", v)
		}
	})
}

// TestSecondWriterChainsBehindFirstGrant: the old owner's grant to a
// first writer is held while a second writer faults; the home forwards
// the second write to the first writer, whose grant has not arrived. The
// first writer must park it, install its grant and write, and only then
// hand the object on, with its write. Served at once, the forward finds
// no ownership to hand on and the second write never completes.
func TestSecondWriterChainsBehindFirstGrant(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		arrived := make(chan struct{})
		var once sync.Once
		grantHeld, releaseGrant := make(chan struct{}), make(chan struct{})
		var grantOnce sync.Once
		setHook(t, &testHookFwdWrite, func(n *Node, s string) {
			switch {
			case n.ID() == 0 && s == "served": // the owner's grant to w1
				grantOnce.Do(func() { close(grantHeld); <-releaseGrant })
			case n.ID() == 1 && s == "arrived": // w2's write at w1
				once.Do(func() { close(arrived) })
			}
		})
		r := mk(t, 4)
		_, w1, w2 := ownerRig(t, r, 1)
		wrote1, wrote2 := make(chan struct{}), make(chan struct{})
		go func() { defer close(wrote1); w1.Write(duq.New(), 1, 8, u64bytes(7)) }()
		waitOrTimeout(t, "the old owner's grant to the first writer", grantHeld)
		go func() { defer close(wrote2); w2.Write(duq.New(), 1, 0, u64bytes(9)) }()
		waitOrTimeout(t, "the second write's forward to the first writer", arrived)
		time.Sleep(20 * time.Millisecond)
		close(releaseGrant)
		within(t, "the first write", func() { <-wrote1 })
		within(t, "the second write", func() { <-wrote2 })
		for _, n := range r.nodes {
			if a, b := readU64(n, duq.New(), 1, 0), readU64(n, duq.New(), 1, 8); a != 9 || b != 7 {
				t.Fatalf("node %d reads (%d, %d), want (9, 7)", n.ID(), a, b)
			}
		}
	})
}

// TestOldOwnerServesForwardWhileItsUpgradeWaits: the owner, holding a
// Shared copy after a read, faults to write and its request is parked
// before it leaves; a rival's write reaches the home first and is
// forwarded to the owner. The owner still owns the object, so it must
// serve the forward at once — the rival's write completes while the
// owner's request is still out — and its own request, taken up next, is
// granted with the rival's bytes. If a node parked every forward while
// an ownership request of its own is out, the rival would never be
// granted.
func TestOldOwnerServesForwardWhileItsUpgradeWaits(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		r := mk(t, 4)
		owner, rival, _ := ownerRig(t, r, 1)
		readU64(rival, duq.New(), 1, 0)
		hook, parked, release := parkWriteOwnOf(owner)
		setHook(t, &testHookWriteOwnBuilt, hook)
		ownerWrote := make(chan struct{})
		go func() { defer close(ownerWrote); owner.Write(duq.New(), 1, 8, u64bytes(5)) }()
		waitOrTimeout(t, "the owner's vouch", parked)
		within(t, "the rival's write", func() { rival.Write(duq.New(), 1, 0, u64bytes(7)) })
		close(release)
		within(t, "the owner's write", func() { <-ownerWrote })
		for _, n := range r.nodes {
			if a, b := readU64(n, duq.New(), 1, 0), readU64(n, duq.New(), 1, 8); a != 7 || b != 5 {
				t.Fatalf("node %d reads (%d, %d), want (7, 5)", n.ID(), a, b)
			}
		}
		if n := r.nodes[3].C.Get("fwd.write"); n != 2 {
			t.Fatalf("fwd.write = %d, want 2 (the rival's write to the owner, the owner's to the rival)", n)
		}
	})
}

// TestNextPeriodForwardWaitsForCurrentOne: the forward that ends the
// owner's period is held on arrival; meanwhile the owner is named owner
// again by its own request (granted through the rival it is handing the
// object to), and a third writer's forward for that next period reaches
// it while it still owns the current one. The owner must serve the two
// in period order. A node that told them apart by "my request is out and
// I do not own" alone would take up the later one at once, find it owns
// the wrong period, and drop it: the third writer's write never
// completes.
func TestNextPeriodForwardWaitsForCurrentOne(t *testing.T) {
	onBothWires(t, func(t *testing.T, mk func(*testing.T, int) *rig) {
		held, release := make(chan struct{}), make(chan struct{})
		var first atomic.Bool
		setHook(t, &testHookFwdWrite, func(n *Node, s string) {
			// Only the rival's forward parks: the third writer's, arriving
			// later, must not queue behind it (as it would in a sync.Once).
			if n.ID() == 0 && s == "arrived" && first.CompareAndSwap(false, true) {
				close(held)
				<-release
			}
		})
		r := mk(t, 4)
		owner, rival, third := ownerRig(t, r, 1)
		readU64(rival, duq.New(), 1, 0)
		home := r.nodes[3]
		done := make([]chan struct{}, 3)
		for i := range done {
			done[i] = make(chan struct{})
		}
		go func() { defer close(done[0]); rival.Write(duq.New(), 1, 0, u64bytes(7)) }()
		waitOrTimeout(t, "the rival's forward at the owner", held)
		go func() { defer close(done[1]); owner.Write(duq.New(), 1, 8, u64bytes(5)) }()
		waitFwdWrites(t, home, 2) // the owner's request is forwarded to the rival
		go func() { defer close(done[2]); third.Write(duq.New(), 1, 0, u64bytes(3)) }()
		waitFwdWrites(t, home, 3) // the third writer's request is forwarded to the owner
		time.Sleep(20 * time.Millisecond)
		close(release)
		for i, what := range []string{"the rival's write", "the owner's write", "the third writer's write"} {
			within(t, what, func() { <-done[i] })
		}
		// In period order the third writer overwrites the rival's word
		// and keeps the owner's.
		for _, n := range r.nodes {
			if a, b := readU64(n, duq.New(), 1, 0), readU64(n, duq.New(), 1, 8); a != 3 || b != 5 {
				t.Fatalf("node %d reads (%d, %d), want (3, 5)", n.ID(), a, b)
			}
		}
	})
}

// waitFwdWrites waits until the home has forwarded want write faults.
func waitFwdWrites(t *testing.T, home *Node, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); home.C.Get("fwd.write") < want; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fwd.write stayed at %d, want %d", home.C.Get("fwd.write"), want)
		}
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
	addrs := reserveAddrs(t, n)
	return startMeshMembers(t, n, func(i int) transport.Topology {
		return transport.Topology{Self: msg.NodeID(i), Peers: peersAt(addrs)}
	})
}

func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs, err := netutil.ReserveAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func peersAt(addrs []string) map[msg.NodeID]string {
	peers := make(map[msg.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[msg.NodeID(i)] = a
	}
	return peers
}

// startMeshMembers starts n members, member i on topology topo(i).
func startMeshMembers(t *testing.T, n int, topo func(i int) transport.Topology) []meshMember {
	t.Helper()
	members := make([]meshMember, n)
	for i := range members {
		topo := topo(i)
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

// wireCutter relays a loopback TCP connection between two mesh members,
// so a test can cut that one pair's wire while both members live on.
// While it drops, the bytes it reads are discarded, as on a wire that
// dies under them; a cut closes every relayed connection and relays the
// re-dialed ones.
type wireCutter struct {
	ln     net.Listener
	target string
	drop   atomic.Bool
	mu     sync.Mutex
	conns  []net.Conn
}

func newWireCutter(t *testing.T, target string) *wireCutter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &wireCutter{ln: ln, target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go w.relay(c)
		}
	}()
	t.Cleanup(func() { ln.Close(); w.cut() })
	return w
}

func (w *wireCutter) addr() string { return w.ln.Addr().String() }

func (w *wireCutter) relay(c net.Conn) {
	u, err := net.Dial("tcp", w.target)
	if err != nil {
		c.Close()
		return
	}
	w.mu.Lock()
	w.conns = append(w.conns, c, u)
	w.mu.Unlock()
	go w.pump(u, c)
	w.pump(c, u)
}

func (w *wireCutter) pump(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 && !w.drop.Load() {
			if _, werr := dst.Write(buf[:k]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

func (w *wireCutter) cut() {
	w.mu.Lock()
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	w.drop.Store(false)
}

// TestRedialedOldOwnerNeverReadsStale: the wire between the home and the
// old owner dies with the home's forward of a write fault on it, and the
// two re-dial (Topology.Reconnect) with both alive. The old owner never
// saw the forward: it still owns the object and holds a valid copy, and
// a live peer that re-dials sends no kindRecover, so no prune retires
// that copy. The writer's fault must therefore fail with the typed
// a peer-down error (transport.PeerDownOf), or, if it completes, the old owner must read
// what it wrote. It fails if the home grants the writer in the old
// owner's stead after a wire death: the writer's word lands and the old
// owner keeps reading the word it overwrote.
func TestRedialedOldOwnerNeverReadsStale(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	// The home dials the owner through toOwner and the owner dials the
	// home through toHome: whichever side dials, the pair's one
	// connection runs through a cutter.
	toOwner, toHome := newWireCutter(t, addrs[2]), newWireCutter(t, addrs[0])
	m := startMeshMembers(t, 3, func(i int) transport.Topology {
		peers := peersAt(addrs)
		switch i {
		case 0:
			peers[2] = toOwner.addr()
		case 2:
			peers[0] = toHome.addr()
		}
		return transport.Topology{Self: msg.NodeID(i), Peers: peers,
			Reconnect: transport.ReconnectPolicy{Enabled: true, Backoff: 20 * time.Millisecond}}
	})
	home, writer, owner := m[0], m[1], m[2]
	defer func() {
		for _, mm := range m {
			mm.clu.Close()
		}
	}()
	redialed := make(chan struct{}, 1)
	home.clu.Network().(transport.PeerReconnectNotifier).OnPeerReconnect(func(peer msg.NodeID, _ uint64) {
		if peer == 2 {
			select {
			case redialed <- struct{}{}:
			default:
			}
		}
	})
	opts := DefaultOptions()
	opts.Home = 0
	meta := Meta{ID: 1, Name: "conv", Size: 16, Annot: Conventional, Opts: opts}
	for _, mm := range m {
		mm.node.InstallLocal(meta, append(u64bytes(3), u64bytes(3)...))
	}
	owner.node.Write(duq.New(), 1, 0, u64bytes(4))
	readU64(writer.node, duq.New(), 1, 0) // the writer's copy is current: its vouch is good

	toOwner.drop.Store(true)
	toHome.drop.Store(true)
	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		writer.node.Write(duq.New(), 1, 8, u64bytes(9))
	}()
	waitFwdWrites(t, home.node, 1)
	time.Sleep(20 * time.Millisecond) // the forward reaches the cutter and is dropped
	toOwner.cut()
	toHome.cut()

	var panicked any
	select {
	case panicked = <-res:
	case <-time.After(10 * time.Second):
		t.Fatal("the write neither completed nor failed after the wire to the old owner died")
	}
	waitOrTimeout(t, "the home and the old owner re-dial", redialed)
	if panicked != nil {
		want := transport.PeerDownError(2, nil).Error()
		want = want[:strings.Index(want, "down")+len("down")]
		if s := fmt.Sprint(panicked); !strings.Contains(s, want) {
			t.Fatalf("write across the dead wire: panic %q; want a panic carrying %q", s, want)
		}
		return
	}
	if got := readU64(owner.node, duq.New(), 1, 8); got != 9 {
		t.Fatalf("the old owner reads %d after the writer's write of 9 completed: its copy outlived the ownership it lost", got)
	}
}

// TestLostForwardeeFailsOrRetriesTheReader: the owner is lost between the
// home's forward and its own reply. The home awaits nothing from the
// owner — the reader does, through a call addressed to the home — so the
// home must answer for it: after a wire death the reader's fault fails
// with a peer-down error (transport.PeerDownOf) naming the owner, after a clean
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
					want := transport.PeerDownError(2, nil).Error()
					want = want[:strings.Index(want, "down")+len("down")]
					if s := fmt.Sprint(out.panicked); !strings.Contains(s, want) {
						t.Fatalf("read after the owner's death: value %d, panic %q; want a panic carrying %q", out.v, s, want)
					}
					return
				}
				if out.panicked != nil || out.v != 3 {
					t.Fatalf("read after the owner's departure: value %d, panic %v; want the home's copy, 3", out.v, out.panicked)
				}
				if n := home.node.C.Get("member.reclaimed_owner"); n != 1 {
					t.Fatalf("member.reclaimed_owner = %d, want 1", n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the read neither completed nor failed: nobody answered for the lost owner")
			}
		})
	}
}

// TestLostOldOwnerFailsOrGrantsTheWriter: the old owner is lost between
// the home's forward of a write fault and its grant. The home awaits
// nothing from it — the writer does — so the home must answer for it.
// After a wire death the writer's fault fails with the typed
// a peer-down error (transport.PeerDownOf) naming the owner, whether or not its copy was
// current: the owner may live on behind the dead wire
// (TestRedialedOldOwnerNeverReadsStale). After a clean departure the
// home grants the writer: without data when the writer's copy was
// current, else with the home's copy, as a departed owner's objects are
// taken back. The write hangs if the home keeps no note of the forward
// (or PeerDown/PeerGone do not consult it).
func TestLostOldOwnerFailsOrGrantsTheWriter(t *testing.T) {
	for _, loss := range []string{"killed", "departed"} {
		for _, vouch := range []string{"with copy", "without copy"} {
			t.Run(loss+"/"+vouch, func(t *testing.T) {
				parked, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				setHook(t, &testHookFwdWrite, func(n *Node, s string) {
					if n.ID() == 2 && s == "arrived" { // the writer's fault at the owner
						once.Do(func() { close(parked); <-release })
					}
				})
				m := newMeshMembers(t, 3)
				home, writer, owner := m[0], m[1], m[2]
				opts := DefaultOptions()
				opts.Home = 0
				meta := Meta{ID: 1, Name: "conv", Size: 16, Annot: Conventional, Opts: opts}
				for _, mm := range m {
					mm.node.InstallLocal(meta, append(u64bytes(3), u64bytes(3)...))
				}
				owner.node.Write(duq.New(), 1, 0, u64bytes(4))
				if vouch == "with copy" {
					readU64(writer.node, duq.New(), 1, 0)
				}

				res := make(chan any, 1)
				go func() {
					defer func() { res <- recover() }()
					writer.node.Write(duq.New(), 1, 8, u64bytes(9))
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
				defer func() {
					close(release)
					<-gone
					writer.clu.Close()
					home.clu.Close()
				}()

				var panicked any
				select {
				case panicked = <-res:
				case <-time.After(10 * time.Second):
					t.Fatal("the write neither completed nor failed: nobody answered for the lost owner")
				}
				if loss == "killed" {
					want := transport.PeerDownError(2, nil).Error()
					want = want[:strings.Index(want, "down")+len("down")]
					if s := fmt.Sprint(panicked); !strings.Contains(s, want) {
						t.Fatalf("write after the owner's death: panic %q; want a panic carrying %q", s, want)
					}
					// The object is lost with its owner at the writer too.
					func() {
						defer func() {
							if s := fmt.Sprint(recover()); !strings.Contains(s, want) {
								t.Fatalf("second write: panic %q, want %q", s, want)
							}
						}()
						writer.node.Write(duq.New(), 1, 8, u64bytes(10))
					}()
					return
				}
				if panicked != nil {
					t.Fatalf("write after the owner was lost: panic %v, want a grant from the home", panicked)
				}
				wantFirst := uint64(4) // the writer's copy was current
				if vouch == "without copy" {
					wantFirst = 3 // the home's copy: the owner's write left with it
				}
				q := duq.New()
				if a, b := readU64(writer.node, q, 1, 0), readU64(writer.node, q, 1, 8); a != wantFirst || b != 9 {
					t.Fatalf("the writer reads (%d, %d), want (%d, 9)", a, b, wantFirst)
				}
			})
		}
	}
}
