// Package facts centralizes the repo-specific knowledge the muninvet
// analyzers share: which callees park the caller on a remote
// rendezvous, which mutexes are documented fences or serialization
// exemptions, which error values and types form the typed failure
// taxonomy, and the documented global lock-acquisition hierarchy.
//
// The interprocedural layer (framework.Program summaries) and the
// analyzers built on it — lockorder, errflow and lockhold — all consult
// the same tables, so a new blocking call or a new lock field is added
// here once and every diagnostic sees it.
package facts

import (
	"go/types"
	"strings"

	"munin/internal/analysis/framework"
)

// Blocking is the registry of callees that park the caller on a remote
// round trip or rendezvous. A function whose body reaches any of these
// (transitively, per the framework call-graph summaries) "blocks".
var Blocking = []struct{ Pkg, Recv, Name string }{
	{"munin/internal/vkernel", "Kernel", "Call"},
	{"munin/internal/vkernel", "Kernel", "MulticastCall"},
	{"munin/internal/vkernel", "Kernel", "CallInline"},
	{"munin/internal/vkernel", "Kernel", "Flush"},
	{"munin/internal/vkernel", "Pending", "Wait"},
	{"munin/internal/transport", "Endpoint", "Flush"},
	{"munin/internal/protocol", "Node", "FlushQueue"},
	{"munin/internal/protocol", "Node", "TryFlushQueue"},
	{"munin/internal/dlock", "Service", "Acquire"},
	{"munin/internal/dlock", "Service", "Release"},
	{"munin/internal/dlock", "Service", "BarrierWait"},
	{"munin/internal/dlock", "Service", "FetchAdd"},
	{"munin/internal/core", "System", "runGate"},
	{"munin/internal/core", "System", "resyncGate"},
	{"sync", "WaitGroup", "Wait"},
}

// IsBlocking reports whether fn is one of the registered blocking
// rendezvous entry points.
func IsBlocking(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	for _, b := range Blocking {
		if framework.FuncIs(fn, b.Pkg, b.Recv, b.Name) {
			return true
		}
	}
	return false
}

// FenceNames are the protocol fence mutex field names: deliberately
// held across remote round trips (docs, "life of a flush"), exempt
// from the hold-across-blocking rule but subject to sorted-order
// multi-acquisition.
var FenceNames = map[string]bool{"relayMu": true, "pushMu": true}

// IsFenceKey reports whether a canonical framework.LockKey names a
// fence mutex field.
func IsFenceKey(key string) bool {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		key = key[i+1:]
	}
	return FenceNames[key]
}

// IsSerializationExemptKey reports whether the lock key is the home
// directory-entry mutex — the documented serialization exemption: the
// home pins a whole ownership-transfer round (including its remote
// invalidate/fetch round trips) under dirEntry.mu, and the remote
// handlers for those messages never call back into the home's
// directory, so the hold cannot cycle.
func IsSerializationExemptKey(key string) bool {
	return key == "munin/internal/protocol.dirEntry.mu"
}

// IsExemptFromBlockingRule reports whether holding this lock across a
// blocking call is documented as safe (fences and the dirEntry
// serialization mutex).
func IsExemptFromBlockingRule(key string) bool {
	return IsFenceKey(key) || IsSerializationExemptKey(key)
}

// LockLevels is the documented global lock-acquisition hierarchy over
// the repo's long-lived mutexes, keyed by framework.LockKey. An edge
// "held A while acquiring B" in the whole-program acquisition-order
// graph must go from a lower level to a strictly higher one; two locks
// on the same level must never nest. Locks not listed here (locals,
// test scaffolding, benchmark state) are constrained only by the
// cycle check.
//
// The levels encode the order the tree actually uses, read off the
// whole-program acquisition-order graph (the generated lockorder DOT
// graph embedded in docs/ARCHITECTURE.md): fences and gate locks
// first, then the protocol's directory/object state, then dlock's
// proxy-before-home order, then the transport peer and queue locks,
// with the vkernel pending table and the stats counters as leaves that
// everything above may touch. Reordering a nested pair — acquiring a
// higher-level lock and then a lower-level one — fails muninvet even
// before a second witness path closes a cycle.
var LockLevels = map[string]int{
	// Fences and front doors: deliberately held across whole rounds
	// (flush/relay fences, the SPMD gate), so everything else must nest
	// inside them. A flush takes the flush locks (Obj.pushMu) of every
	// object it drained before it captures anything and keeps them across
	// the merge of the objects homed locally, which takes their relayMu;
	// no handler takes a pushMu, so the order is never reversed.
	"munin/internal/protocol.Obj.pushMu":       8,
	"munin/internal/protocol.dirEntry.relayMu": 10,
	"munin/internal/core.System.mu":            10,
	"munin/internal/core.System.gateMu":        10,

	// Protocol directory and object state: the home pins an ownership
	// round under dirEntry.mu and mutates objects (Obj.mu) inside it.
	// Object lookups take no lock; objTable.mu serializes installs only
	// and nests with nothing today — its level keeps it that way round
	// should an install ever run under a directory entry.
	"munin/internal/protocol.dirEntry.mu": 14,
	"munin/internal/protocol.objTable.mu": 16,
	"munin/internal/protocol.Obj.mu":      18,

	// dlock: the local proxy is pinned first, then the service's
	// table; home-side per-primitive state never nests with either.
	"munin/internal/dlock.proxy.mu":        20,
	"munin/internal/dlock.Service.mu":      22,
	"munin/internal/dlock.homeState.mu":    24,
	"munin/internal/dlock.barrierState.mu": 24,
	"munin/internal/dlock.atomicState.mu":  24,
	"munin/internal/dlock.condState.mu":    24,

	// Transport: per-peer state, then the network registry, then the
	// send queues (reached from every layer above via Send/Call).
	"munin/internal/transport.meshPeer.mu":    30,
	"munin/internal/transport.MeshNetwork.mu": 32,
	"munin/internal/transport.sendQueue.mu":   34,
	"munin/internal/transport.queue.mu":       34,

	// Leaves: the vkernel pending-call table and the counters (Set.mu
	// is taken only to register a counter name on first use).
	"munin/internal/vkernel.Kernel.mu": 40,
	"munin/internal/stats.Set.mu":      50,
}

// SentinelErrorPkgPrefix marks the module's packages: an exported
// Err-prefixed var or type from any package under this prefix is part
// of the typed error taxonomy and must be matched with
// errors.Is/errors.As, never == or a concrete type switch — wrapping
// (and the reconnect path's latch/clear rewrapping) breaks identity
// comparisons silently.
const SentinelErrorPkgPrefix = "munin/"

// IsSentinelErrorVar reports whether obj is a sentinel error variable
// of the module's taxonomy (an exported package-level var named
// Err... in a munin package, e.g. transport.ErrClosed).
func IsSentinelErrorVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if !strings.HasPrefix(v.Pkg().Path(), SentinelErrorPkgPrefix) {
		return false
	}
	return strings.HasPrefix(v.Name(), "Err") && v.Parent() == v.Pkg().Scope()
}

// IsSentinelErrorType reports whether t (possibly behind a pointer) is
// one of the module's typed errors (a named Err... type in a munin
// package, e.g. *transport.ErrPeerDown).
func IsSentinelErrorType(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		strings.HasPrefix(obj.Pkg().Path(), SentinelErrorPkgPrefix) &&
		strings.HasPrefix(obj.Name(), "Err")
}

func init() {
	// The framework computes blocking summaries during Program
	// construction; register the repo's registry as its oracle.
	framework.SetBlockingOracle(IsBlocking)
}
