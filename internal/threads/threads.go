// Package threads is the Presto-like thread runtime: lightweight threads
// placed on cluster nodes, a fork/join SPMD driver, and per-thread
// context. Presto provided "parallelism (lightweight processes) and
// synchronization" for the paper's study programs; goroutines play the
// lightweight-process role here, with explicit node placement so the DSM
// layer knows which node every access comes from.
package threads

import (
	"fmt"

	"munin/internal/msg"
)

// Thread identifies one running thread and its placement.
type Thread struct {
	// ID is the dense thread index, 0..nthreads-1.
	ID int
	// Node is the processor the thread is placed on.
	Node msg.NodeID
	// NThreads is the total number of threads in the SPMD team.
	NThreads int
}

// Placement maps thread IDs to nodes.
type Placement func(threadID, nthreads, nodes int) msg.NodeID

// RoundRobin places thread i on node i mod nodes — the default placement,
// matching how the study programs spread threads over processors.
func RoundRobin(threadID, _, nodes int) msg.NodeID {
	return msg.NodeID(threadID % nodes)
}

// Blocked places threads in contiguous blocks: with T threads and N
// nodes, threads [k*T/N, (k+1)*T/N) run on node k.
func Blocked(threadID, nthreads, nodes int) msg.NodeID {
	if nthreads < nodes {
		return msg.NodeID(threadID % nodes)
	}
	per := (nthreads + nodes - 1) / nodes
	return msg.NodeID(threadID / per)
}

// SPMD runs body on nthreads threads placed over nodes processors and
// waits for all of them. A nil placement means RoundRobin. The first
// panic in a thread body is re-raised on the caller as soon as it is
// recovered, so tests fail loudly rather than deadlock; the other
// threads run on, and their later panics are dropped.
func SPMD(nodes, nthreads int, place Placement, body func(t *Thread)) {
	spmd(nodes, nthreads, place, body, -1)
}

// SPMDLocal runs one process's share of an SPMD team whose threads span
// processes: the full team is nthreads threads placed over nodes
// processors, but only the threads that place puts on node self are
// spawned here — the same program running in the other processes spawns
// the rest. Thread IDs and NThreads describe the whole team, so
// Partition and per-thread work division come out identical to the
// single-process run. A self with no threads placed on it returns
// immediately (legal: a 2-thread team on a 4-process cluster).
func SPMDLocal(self msg.NodeID, nodes, nthreads int, place Placement, body func(t *Thread)) {
	if int(self) < 0 || int(self) >= nodes {
		panic(fmt.Sprintf("threads: SPMDLocal self=%d not in 0..%d", self, nodes-1))
	}
	spmd(nodes, nthreads, place, body, self)
}

// spmd is the shared driver: only < 0 means "spawn every thread".
func spmd(nodes, nthreads int, place Placement, body func(t *Thread), only msg.NodeID) {
	if nodes <= 0 || nthreads <= 0 {
		panic(fmt.Sprintf("threads: bad SPMD shape nodes=%d nthreads=%d", nodes, nthreads))
	}
	if place == nil {
		place = RoundRobin
	}
	// Each thread sends what it recovered (nil when it returned): the
	// first panic is re-raised at once, not after the other threads,
	// which may be waiting on a lock or barrier the dead thread will
	// never release.
	done := make(chan any, nthreads)
	spawned := 0
	for i := 0; i < nthreads; i++ {
		node := place(i, nthreads, nodes)
		if only >= 0 && node != only {
			continue
		}
		spawned++
		t := &Thread{ID: i, Node: node, NThreads: nthreads}
		go func() {
			defer func() { done <- recover() }()
			body(t)
		}()
	}
	for ; spawned > 0; spawned-- {
		if r := <-done; r != nil {
			panic(r)
		}
	}
}

// Partition splits the half-open range [0, n) into nthreads contiguous
// chunks and returns thread id's chunk. Standard loop-partitioning helper
// used by the study programs.
func Partition(n, nthreads, id int) (lo, hi int) {
	per := n / nthreads
	rem := n % nthreads
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}
