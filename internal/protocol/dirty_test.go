package protocol

import (
	"testing"
	"time"

	"munin/internal/duq"
	"munin/internal/failpoint"
)

// TestRelayedUpdateNeverRidesAFlush is the oracle for root cause B. A
// node with unflushed writes of its own receives another node's update
// through the home's relay; its next flush must carry its own bytes and
// nothing else. When the flush rediscovered its writes by diffing against
// a twin, the relayed byte — applied to the copy but not to the twin —
// diffed as a local write and went back to the home, where it could
// overwrite a newer value.
func TestRelayedUpdateNeverRidesAFlush(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Home = 0
	r.alloc(1, "lanes", 2, WriteMany, opts, nil)
	q1, q2 := duq.New(), duq.New()
	lanes := make([]byte, 2)
	r.nodes[1].Read(q1, 1, 0, lanes) // both join the copyset, so the
	r.nodes[2].Read(q2, 1, 0, lanes) // home relays each one's update to the other

	r.nodes[1].Write(q1, 1, 0, []byte{1}) // node 1 is dirty on lane 0
	r.nodes[2].Write(q2, 1, 1, []byte{1})
	r.nodes[2].FlushQueue(q2) // acknowledged: the relay is installed at node 1
	if r.nodes[1].Read(q1, 1, 0, lanes); lanes[1] != 1 {
		t.Fatalf("node 1 holds %v: node 2's relayed lane never arrived", lanes)
	}

	before := r.nodes[1].C.Get("diff.bytes")
	r.nodes[1].FlushQueue(q1)
	if sent := r.nodes[1].C.Get("diff.bytes") - before; sent != 1 {
		t.Fatalf("node 1 wrote one byte and flushed %d: a relayed update rode its flush", sent)
	}
	if r.nodes[0].Read(q1, 1, 0, lanes); lanes[0] != 1 || lanes[1] != 1 {
		t.Fatalf("home holds %v, want [1 1]", lanes)
	}
}

// TestFlushesLandInCaptureOrder is the oracle for root cause C. Two
// threads of one node write lanes of the same object. Thread A's flush
// captures both lanes (the dirty set is per node) and is parked between
// capture and send; thread B rewrites its lane and flushes; A is released.
// The home and every copy must end up with B's newer byte: a node's
// flushes of one object reach the wire in the order they captured it,
// because a flush holds the object's flush lock from before the capture
// until the acknowledgment. Without that lock B's flush overtakes A's and
// A's older capture lands last. The producer-consumer case shows the one
// rule keeps what the lock guaranteed when only eager pushes took it.
func TestFlushesLandInCaptureOrder(t *testing.T) {
	for _, annot := range []Annotation{WriteMany, ProducerConsumer} {
		t.Run(annot.String(), func(t *testing.T) {
			r := newRig(t, 3)
			opts := DefaultOptions()
			opts.Home = 0
			r.alloc(1, "lanes", 2, annot, opts, nil)
			n, qa, qb, qr := r.nodes[1], duq.New(), duq.New(), duq.New()
			lanes := make([]byte, 2)
			r.nodes[2].Read(qr, 1, 0, lanes) // a copy holder / registered consumer

			n.Write(qa, 1, 0, []byte{1})
			n.Write(qb, 1, 1, []byte{1})
			parked, release := make(chan struct{}), make(chan struct{})
			failpoint.Arm(failpoint.FlushPlanned, 0, func() { close(parked); <-release })
			t.Cleanup(func() { failpoint.Disarm(failpoint.FlushPlanned) })
			aDone, bDone := make(chan struct{}), make(chan struct{})
			go func() { defer close(aDone); n.FlushQueue(qa) }()
			<-parked
			n.Write(qb, 1, 1, []byte{2})
			go func() { defer close(bDone); n.FlushQueue(qb) }()
			// B's flush either completes now (nothing orders it behind A's,
			// and the check below fails) or is waiting for A's flush lock
			// and cannot finish until A is released; the timer only bounds
			// how long the second case is given to show itself.
			select {
			case <-bDone:
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			<-aDone
			<-bDone

			for _, at := range []int{0, 2} {
				if r.nodes[at].Read(qr, 1, 0, lanes); lanes[0] != 1 || lanes[1] != 2 {
					t.Errorf("node %d holds %v, want [1 2]: an older capture landed on a newer one", at, lanes)
				}
			}
		})
	}
}
