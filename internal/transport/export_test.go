package transport

import (
	"net"

	"munin/internal/msg"
)

// Hooks into an in-process network's members for the tests of package
// transport_test, which drive it from above through vkernel.

// HoldWriter pauses node from's writer towards node to, so that what is
// sent in between stays queued, and returns the function that resumes
// it.
func HoldWriter(tn *TCPNetwork, from, to msg.NodeID) (release func()) {
	q := tn.eps[from].peers[to].q
	q.hold()
	return q.release
}

// PairConn returns node i's end of its connection to node j, or nil
// once the pair is latched down.
func PairConn(tn *TCPNetwork, i, j msg.NodeID) net.Conn {
	p := tn.eps[i].peers[j]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// hold/release pause and resume a writer's draining.
func (q *sendQueue) hold() {
	q.mu.Lock()
	q.held = true
	q.mu.Unlock()
}

func (q *sendQueue) release() {
	q.mu.Lock()
	q.held = false
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}
