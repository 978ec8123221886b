package protocol

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/stats"
	"munin/internal/transport"
)

// TestFlushSurfacesErrPeerDownOverMesh: when the home's process dies,
// a subsequent flush on the writer fails with the typed
// a peer-down error (transport.PeerDownOf) instead of panicking opaquely or hanging —
// the contract multi-process drivers (bench E12, munin-bench -peers)
// rely on.
func TestFlushSurfacesErrPeerDownOverMesh(t *testing.T) {
	addrs := make([]string, 0, 2)
	lns := make([]net.Listener, 0, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	build := func(self msg.NodeID) (*cluster.Cluster, *Node) {
		topo := transport.Topology{Self: self, Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		k := clu.Kernel(self)
		node := NewNode(k, dlock.NewService(k))
		clu.Start()
		return clu, node
	}
	homeClu, _ := build(0)
	writerClu, writerNode := build(1)
	defer writerClu.Close()

	// Allocate and prime over the live mesh.
	q := duq.New()
	opts := DefaultOptions()
	opts.Home = 0
	id := memory.ObjectID(1)
	writerNode.Alloc(Meta{ID: id, Name: "wm", Size: 64, Annot: WriteMany, Opts: opts}, nil)
	buf := make([]byte, 8)
	writerNode.Read(q, id, 0, buf)

	// Dirty the object, then kill the home "process" abruptly before
	// the flush — no goodbye, so the writer observes wire death (a
	// graceful Close would surface a peer-gone error (transport.PeerGoneOf) instead; see
	// TestFlushSurfacesErrPeerGoneAfterHomeLeaves).
	writerNode.Write(q, id, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	homeClu.Kill()

	start := time.Now()
	err := writerNode.TryFlushQueue(q)
	if peer, down := transport.PeerDownOf(err); !down || peer != 0 {
		t.Fatalf("TryFlushQueue after home death = %v, want node 0's peer-down error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("flush took %v to fail, want < 1s", elapsed)
	}
	// The failed flush commits the attempted entry: its diff was
	// consumed and the dead peer can never receive it (the latch is
	// permanent), so keeping it queued would only let a retry succeed
	// vacuously. The typed error above is the loss report.
	if q.Contains(id) {
		t.Fatal("failed flush left a consumed entry queued (a retry would succeed vacuously)")
	}
	if err := writerNode.TryFlushQueue(q); err != nil {
		t.Fatalf("empty retry after reported loss = %v, want nil", err)
	}
}

// TestFlushSurfacesErrPeerGoneAfterHomeLeaves pins the other half of
// the failure vocabulary: a home that departs CLEANLY (graceful Close
// → goodbye handshake) makes a later flush fail with the typed
// a peer-gone error (transport.PeerGoneOf) — distinguishable from wire death, because
// nothing was lost: the home drained everything it had sent before
// leaving.
func TestFlushSurfacesErrPeerGoneAfterHomeLeaves(t *testing.T) {
	addrs := make([]string, 0, 2)
	lns := make([]net.Listener, 0, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	build := func(self msg.NodeID) (*cluster.Cluster, *Node) {
		topo := transport.Topology{Self: self, Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		k := clu.Kernel(self)
		node := NewNode(k, dlock.NewService(k))
		clu.Start()
		return clu, node
	}
	homeClu, _ := build(0)
	writerClu, writerNode := build(1)
	defer writerClu.Close()

	q := duq.New()
	opts := DefaultOptions()
	opts.Home = 0
	id := memory.ObjectID(1)
	writerNode.Alloc(Meta{ID: id, Name: "wm", Size: 64, Annot: WriteMany, Opts: opts}, nil)
	buf := make([]byte, 8)
	writerNode.Read(q, id, 0, buf)

	writerNode.Write(q, id, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	homeClu.Close() // graceful: goodbye, drain, ack

	start := time.Now()
	err := writerNode.TryFlushQueue(q)
	if peer, gone := transport.PeerGoneOf(err); !gone || peer != 0 {
		t.Fatalf("TryFlushQueue after home departure = %v, want node 0's peer-gone error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("flush took %v to fail, want < 1s", elapsed)
	}
	// No peer-down latch anywhere: the departure was clean.
	if got := writerClu.Stats().WirePeerDown(); got != 0 {
		t.Fatalf("wire.peer_down = %d after a clean departure, want 0", got)
	}
	if got := writerClu.Stats().WirePeerGone(); got != 1 {
		t.Fatalf("wire.peer_gone = %d, want 1", got)
	}
}

// TestPeerGonePrunesCopyset: a copy holder departs cleanly; the home
// prunes it from the object's directory copy set (departure-aware
// membership), so the next flush at the home relays to nobody instead
// of paying a failed send to the departed member on every update.
func TestPeerGonePrunesCopyset(t *testing.T) {
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	build := func(self msg.NodeID) (*cluster.Cluster, *Node) {
		topo := transport.Topology{Self: self, Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		k := clu.Kernel(self)
		node := NewNode(k, dlock.NewService(k))
		// The SPMD runtime's membership wiring.
		clu.OnPeerGone(func(peer msg.NodeID, _ error) { node.PeerGone(peer) })
		clu.Start()
		return clu, node
	}
	homeClu, homeNode := build(0)
	defer homeClu.Close()
	readerClu, readerNode := build(1)

	q := duq.New()
	opts := DefaultOptions()
	opts.Home = 0
	id := memory.ObjectID(1)
	// SPMD-style deterministic allocation: both members install their
	// own view locally, no announce traffic.
	meta := Meta{ID: id, Name: "wm", Size: 64, Annot: WriteMany, Opts: opts}
	homeNode.InstallLocal(meta, nil)
	readerNode.InstallLocal(meta, nil)

	// The reader faults a copy in (joining the copyset at the home),
	// then departs cleanly.
	buf := make([]byte, 8)
	readerNode.Read(duq.New(), id, 0, buf)
	readerClu.Close()

	// Wait for the home to observe the departure (the goodbye rides the
	// frame stream; OnPeerGone fires on the home's Recv path).
	deadline := time.Now().Add(5 * time.Second)
	for homeNode.C.Get("member.gone") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("home never observed the departure")
		}
		time.Sleep(time.Millisecond)
	}
	if got := homeNode.C.Get("member.pruned_copies"); got != 1 {
		t.Fatalf("member.pruned_copies = %d, want 1", got)
	}

	// A flush at the home now relays to nobody: no relay attempted, no
	// failed sends, no panic.
	homeNode.Write(q, id, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	relaysBefore := homeNode.C.Get("home.relay")
	if err := homeNode.TryFlushQueue(q); err != nil {
		t.Fatalf("flush after clean departure: %v", err)
	}
	if got := homeNode.C.Get("home.relay"); got != relaysBefore {
		t.Fatalf("home.relay grew %d -> %d: still relaying to the departed member", relaysBefore, got)
	}
	if got := homeNode.C.Get("relay.gone"); got != 0 {
		t.Fatalf("relay.gone = %d: relay raced the pruning in a test where it should not", got)
	}
}

// TestPeerGoneReclaimsExclusiveOwner: a member departs cleanly while
// holding exclusive ownership of a conventional object; the home
// reclaims ownership, so survivors' reads and writes run the ownership
// protocol against the home instead of panicking in a fetch aimed at a
// member that no longer exists. (The departed member's unsynchronized
// bytes are lost with it, like a lock abandoned by a departing owner.)
func TestPeerGoneReclaimsExclusiveOwner(t *testing.T) {
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	build := func(self msg.NodeID) (*cluster.Cluster, *Node) {
		topo := transport.Topology{Self: self, Peers: peers}
		clu, err := cluster.New(cluster.Config{Topology: &topo})
		if err != nil {
			t.Fatal(err)
		}
		k := clu.Kernel(self)
		node := NewNode(k, dlock.NewService(k))
		clu.OnPeerGone(func(peer msg.NodeID, _ error) { node.PeerGone(peer) })
		clu.Start()
		return clu, node
	}
	homeClu, homeNode := build(0)
	defer homeClu.Close()
	writerClu, writerNode := build(1)

	opts := DefaultOptions()
	opts.Home = 0
	id := memory.ObjectID(1)
	meta := Meta{ID: id, Name: "conv", Size: 8, Annot: Conventional, Opts: opts}
	homeNode.InstallLocal(meta, nil)
	writerNode.InstallLocal(meta, nil)

	// The writer takes exclusive ownership (the home's directory now
	// points at node 1), then departs without synchronizing.
	q := duq.New()
	writerNode.Write(q, id, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	writerClu.Close()

	deadline := time.Now().Add(5 * time.Second)
	for homeNode.C.Get("member.gone") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("home never observed the departure")
		}
		time.Sleep(time.Millisecond)
	}
	if got := homeNode.C.Get("member.reclaimed_owner"); got != 1 {
		t.Fatalf("member.reclaimed_owner = %d, want 1", got)
	}

	// Survivors' accesses must not panic (before the reclaim, a fetch from
	// the departed owner panicked the home's dispatcher). The departed
	// member's unsynchronized write is lost; the home serves its own
	// copy.
	buf := make([]byte, 8)
	homeNode.Read(duq.New(), id, 0, buf)
	homeNode.Write(duq.New(), id, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	homeNode.Read(duq.New(), id, 0, buf)
	if buf[0] != 9 {
		t.Fatalf("home write after reclaim not visible: %v", buf)
	}
}

// TestRelayToADeadHolderFailsTheWriterNotTheHome: node 2 holds a copy
// of an object homed on node 0 and its process dies. When node 1
// publishes an update, the home's relay to node 2 fails. The home must
// not panic in its handler (which would take this test binary with it):
// the merge stands, and the failure is the error of whoever published
// the update — node 1's flush, or, when node 1 carries the update in a
// barrier arrival, every participant's barrier, or, for a replicated
// read-mostly object, node 1's remote store.
func TestRelayToADeadHolderFailsTheWriterNotTheHome(t *testing.T) {
	for _, via := range []string{"flush", "barrier", "remote store"} {
		t.Run(via, func(t *testing.T) {
			m := newMeshMembers(t, 3)
			for _, mm := range m[:2] {
				defer mm.clu.Close()
			}
			opts := DefaultOptions()
			opts.Home = 0
			id := memory.ObjectID(1)
			meta := Meta{ID: id, Name: "wm", Size: 64, Annot: WriteMany, Opts: opts}
			if via == "remote store" {
				meta.Annot, meta.Opts.ForceReplicated = ReadMostly, true
			}
			for _, mm := range m {
				mm.node.InstallLocal(meta, nil)
			}
			buf := make([]byte, 8)
			for _, mm := range m[1:] {
				mm.node.Read(duq.New(), id, 0, buf) // both become copy holders
			}
			m[2].clu.Kill()

			home, writer := m[0].node, m[1].node
			q := duq.New()
			// publish writes data at off and returns the publisher's error.
			publish := func(off int, data []byte) (err error) {
				if via == "remote store" {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("%v", p)
						}
					}()
				}
				writer.Write(q, id, off, data)
				if via != "barrier" {
					return writer.TryFlushQueue(q)
				}
				// Barrier 0 is homed on node 0, whose own participant
				// carries nothing.
				var homeErr error
				done := make(chan struct{})
				go func() {
					defer close(done)
					_, homeErr = home.locks.BarrierCarry(0, 2, dlock.Carry{})
				}()
				err = writer.FlushAtBarrier(q, 0, func(p dlock.Carry) ([]byte, error) {
					return writer.locks.BarrierCarry(0, 2, p)
				})
				<-done
				if homeErr == nil || !strings.Contains(homeErr.Error(), "relay") {
					t.Errorf("the home's own participant got %v, want the relay's error", homeErr)
				}
				return err
			}
			if err := publish(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil || !strings.Contains(err.Error(), "relay") {
				t.Fatalf("publishing to a home whose relay fails = %v, want the relay's error", err)
			}
			if got := home.C.Get("relay.failed"); got != 1 {
				t.Errorf("relay.failed = %d at the home, want 1", got)
			}
			// The merge stood: the home copy holds the update, and the
			// writer settled its copy, so a second update publishes
			// cleanly apart from the same dead holder.
			home.Read(duq.New(), id, 0, buf)
			if !bytes.Equal(buf, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
				t.Errorf("home copy = %v after the failed relay, want the update", buf)
			}
			if err := publish(8, []byte{9, 9, 9, 9, 9, 9, 9, 9}); err == nil || !strings.Contains(err.Error(), "relay") {
				t.Errorf("second publish = %v, want the relay's error again", err)
			}
			writer.Read(duq.New(), id, 0, buf)
			if !bytes.Equal(buf, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
				t.Errorf("the writer's copy = %v, want its first update", buf)
			}
			if writer.C.Get(stats.CApplyGap) != 0 {
				t.Errorf("the writer's copy parked an update (apply.gap = %d)", writer.C.Get(stats.CApplyGap))
			}
		})
	}
}
