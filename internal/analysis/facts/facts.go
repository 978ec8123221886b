// Package facts centralizes the repo-specific knowledge the muninvet
// analyzers share: which callees park the caller on a remote
// rendezvous, and which error values and types form the typed failure
// taxonomy.
//
// The lock hierarchy is not here: each mutex's rank is part of its type
// (internal/lockrank), checked at run time under the race detector.
package facts

import (
	"go/types"
	"strings"

	"munin/internal/analysis/framework"
)

// Blocking is the registry of callees that park the caller on a remote
// round trip or rendezvous: errflow forbids discarding their error
// results, and each of them starts with lockrank.Blocking(), so the
// race build rejects entering one with a data mutex held. The Endpoint
// entry is an interface method: every implementation starts that way.
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
