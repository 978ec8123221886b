// Package lockrank gives every long-lived mutex of the module a rank,
// carried in its type: a Mutex[R] is a sync.Mutex whose place in the
// lock hierarchy is the rank type R, declared in ranks.go. Built without
// the race detector a Mutex[R] is exactly a sync.Mutex and its methods
// are sync.Mutex's. Built with -race, as every race run in CI is, Lock,
// LockOrdered, Unlock and Blocking keep a list of the locks each
// goroutine holds and panic on any of these:
//
//   - a lock whose rank is not strictly above every rank the goroutine
//     already holds. This rules out cycles, nesting two ranks of one
//     level and nesting two locks of one rank;
//   - a second lock of one rank taken through LockOrdered with a key not
//     above the key of each lock of that rank already held. The flush
//     fences (ObjPush, DirRelay) are taken this way, in ascending object
//     ID order, so concurrent rounds over overlapping objects cannot
//     deadlock;
//   - a blocking rendezvous (a function that calls Blocking first)
//     entered while the goroutine holds a rank not marked may-block. Only
//     the fences and the home's directory entry (DirEntry) are.
//
// The model is the Go runtime's own lock ranking
// (runtime/lockrank.go), which checks a static rank per lock at run
// time under an experiment flag; here the flag is the race build tag,
// and the rank is a type parameter, so a lock without one does not
// compile as a Mutex.
package lockrank

import "sync"

// rank is what a rank type satisfies. Its method is unexported, so no
// other package can declare a rank.
type rank interface{ level() level }

// level places a rank: n orders the hierarchy, and mayBlock marks the
// ranks a goroutine may hold while it waits on a remote rendezvous.
type level struct {
	n        int
	mayBlock bool
}

// Mutex is a sync.Mutex ranked R. The zero value is unlocked. A *Mutex
// is a sync.Locker, so it backs a sync.Cond.
type Mutex[R rank] struct {
	rec record // zero-sized without -race; first, so it adds no padding
	mu  sync.Mutex
}
