// Package lockhold implements the muninvet analyzer that enforces the
// repo's locking discipline, established by hand in PRs 1–2:
//
//   - No blocking protocol call — vkernel Call/MulticastCall/CallInline,
//     the Flush fence, Pending.Wait, dlock acquire/release/barrier, the
//     core run gate, a protocol FlushQueue, or a bare channel receive —
//     while a data mutex is held. Data mutexes (object mu, digestMu,
//     transport internals…) guard in-memory state; parking a round
//     trip under one stalls every thread and handler that needs the
//     same object and invites lock-order deadlocks against the handler
//     side.
//
//   - The two protocol *fence* mutexes — relayMu and pushMu — are the
//     deliberate exception: their whole purpose is to pin an object's
//     relay/push pipeline across the remote round trip (docs, "life of
//     a flush"). They are exempt from the hold-across-blocking rule,
//     but when more than one is taken the acquisition must happen in
//     sorted object-ID order, or two concurrent flushes with
//     overlapping dirty sets deadlock. The analyzer requires a sort
//     call before any loop that acquires fence mutexes and flags
//     back-to-back acquisitions of two distinct fence mutexes.
//
//   - The home directory-entry mutex (protocol dirEntry.mu) is the
//     other documented exception: the home serializes a whole
//     ownership-transfer round — including its remote invalidate and
//     fetch round trips — under the entry's mutex ("d.mu serializes
//     conflicting requests for the same object"). Remote handlers for
//     those messages never call back into the home's directory, so the
//     hold cannot cycle. The exemption is keyed on the receiver type,
//     not the variable name, so an object mutex spelled `d.mu` would
//     still be flagged.
//
// The per-package analysis is intraprocedural and syntactic over
// type-checked ASTs: lock state is tracked per statement list,
// branches see a copy (a conditional Lock does not leak past its
// branch), a deferred Unlock keeps the mutex held to the end of the
// function, and function literals start with an empty lock set (they
// run elsewhere). A whole-program pass (RunProgram) extends the same
// rule transitively: a call made under a data mutex is flagged when
// the callee's bottom-up summary shows SOME path through it reaches a
// blocking rendezvous, however many frames down — the direct-call
// check alone is one helper-extraction away from useless.
package lockhold

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"munin/internal/analysis/facts"
	"munin/internal/analysis/framework"
)

// Analyzer is the lockhold analyzer.
var Analyzer = &framework.Analyzer{
	Name:       "lockhold",
	Doc:        "no blocking vkernel/dlock/gate call (even transitively) while a data mutex is held; fence mutexes (relayMu/pushMu) multi-acquired only in sorted ID order",
	Run:        run,
	RunProgram: runProgram,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			w := &walker{pass: pass, exempt: map[string]bool{}}
			w.sortPos = sortPositions(pass, fn.Body)
			w.stmts(fn.Body.List, map[string]token.Pos{})
			w.checkFenceOrder(fn)
			return true
		})
	}
	return nil
}

type walker struct {
	pass    *framework.Pass
	sortPos []token.Pos // positions of sort calls in the function

	directFence []fenceAcq      // non-loop fence acquisitions, in order
	exempt      map[string]bool // mutex expr -> exempt from the blocking rule
}

type fenceAcq struct {
	expr string
	pos  token.Pos
}

// stmts walks one statement list with the current held-lock set
// (canonical mutex expr -> Lock position), mutating it for this level
// and handing copies to nested branches.
func (w *walker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if key, locked, ok := w.lockOp(st.X); ok {
			if locked {
				held[key] = st.Pos()
				w.noteFence(key, st.Pos(), false)
			} else {
				delete(held, key)
			}
			return
		}
		w.checkExpr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held for the remainder; a
		// deferred blocking call runs after the function's own unlocks.
		// Either way the lock state does not change here.
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.checkExpr(r, held)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.checkExpr(r, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.checkExpr(st.Cond, held)
		w.stmts(st.Body.List, clone(held))
		if st.Else != nil {
			w.stmt(st.Else, clone(held))
		}
	case *ast.BlockStmt:
		w.stmts(st.List, held)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.checkExpr(st.Cond, held)
		}
		w.loopBody(st.Body, held)
	case *ast.RangeStmt:
		w.checkExpr(st.X, held)
		w.loopBody(st.Body, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.checkExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, clone(held))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, clone(held))
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CommClause).Body, clone(held))
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.GoStmt:
		// The goroutine runs under its own (empty) lock set; launching
		// it does not block the holder.
	case *ast.SendStmt:
		w.checkExpr(st.Value, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	}
}

// loopBody walks a loop body, additionally enforcing the sorted-order
// rule for fence mutexes acquired inside the loop.
func (w *walker) loopBody(body *ast.BlockStmt, held map[string]token.Pos) {
	inner := clone(held)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, locked, ok := w.lockOpCall(call); ok && locked && isFence(key) {
			if !w.sortedBefore(body.Pos()) {
				w.pass.Reportf(call.Pos(), "fence mutex %s acquired in a loop without a preceding sort: multi-acquisition must happen in sorted object-ID order or concurrent flushes deadlock", key)
			}
		}
		return true
	})
	w.stmts(body.List, inner)
}

// checkExpr reports blocking calls (and bare channel receives) in an
// always-evaluated expression while non-fence mutexes are held.
func (w *walker) checkExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			if w.isBlocking(nn) {
				if keys := w.heldDataLocks(held); len(keys) > 0 {
					w.pass.Reportf(nn.Pos(), "blocking call %s while holding mutex %s (locked at line %d): data mutexes must be released before any vkernel round trip or fence",
						framework.ExprString(nn.Fun), keys[0], w.pass.Fset.Position(held[keys[0]]).Line)
				}
			}
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				if keys := w.heldDataLocks(held); len(keys) > 0 {
					w.pass.Reportf(nn.Pos(), "channel receive while holding mutex %s (locked at line %d): parks the holder for an unbounded wait",
						keys[0], w.pass.Fset.Position(held[keys[0]]).Line)
				}
			}
		}
		return true
	})
}

// lockOp matches `X.Lock()` / `X.RLock()` / `X.Unlock()` / `X.RUnlock()`
// on sync mutexes, returning the canonical mutex expression and whether
// it is an acquisition.
func (w *walker) lockOp(e ast.Expr) (key string, locked, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	return w.lockOpCall(call)
}

func (w *walker) lockOpCall(call *ast.CallExpr) (key string, locked, ok bool) {
	fn := framework.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		return "", false, false
	}
	isMutex := framework.FuncIs(fn, "sync", "Mutex", fn.Name()) ||
		framework.FuncIs(fn, "sync", "RWMutex", fn.Name())
	if !isMutex {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		key = framework.ExprString(sel.X)
		if w.exemptMutex(sel.X) {
			w.exempt[key] = true
		}
		return key, true, true
	case "Unlock", "RUnlock":
		return framework.ExprString(sel.X), false, true
	}
	return "", false, false
}

// exemptMutex reports whether the mutex expression is exempt from the
// hold-across-blocking rule: a named fence mutex, or the home
// directory-entry mutex (matched by the receiver's type, not its
// spelling).
func (w *walker) exemptMutex(mutexExpr ast.Expr) bool {
	sel, ok := ast.Unparen(mutexExpr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if facts.FenceNames[sel.Sel.Name] {
		return true
	}
	if tv, ok := w.pass.TypesInfo.Types[sel.X]; ok &&
		framework.NamedTypeIs(tv.Type, "munin/internal/protocol", "dirEntry") {
		return true
	}
	return false
}

func (w *walker) isBlocking(call *ast.CallExpr) bool {
	return facts.IsBlocking(framework.CalleeFunc(w.pass.TypesInfo, call))
}

// runProgram is the transitive extension of the hold-across-blocking
// rule: under a held data mutex, flag any call whose callee's
// whole-program summary reaches a blocking rendezvous some frames
// down. Directly blocking callees are skipped here — the
// intraprocedural pass already reports those with a sharper message.
func runProgram(pp *framework.ProgramPass) error {
	for _, node := range pp.Prog.Nodes {
		pkg := node.Pkg
		w := &framework.LockWalker{
			Info: pkg.Info,
			OnCall: func(call *ast.CallExpr, held map[string]token.Pos) {
				dataKeys := heldDataKeys(held)
				if len(dataKeys) == 0 {
					return
				}
				callees, _ := pp.Prog.Resolve(pkg.Info, call)
				for _, callee := range callees {
					if facts.IsBlocking(callee.Fn) {
						continue // direct hit: the Run pass reports it
					}
					if !callee.Summary.Blocks {
						continue
					}
					key := dataKeys[0]
					pp.Reportf(call.Pos(), "call to %s while holding mutex %s (locked at line %d) transitively blocks: %s — release the mutex before the round trip",
						callee.Name(), framework.LockLabel(key),
						pp.Fset.Position(held[key]).Line, callee.BlockChain())
					return
				}
			},
		}
		w.Walk(node.Decl.Body)
	}
	return nil
}

// heldDataKeys filters the held set down to data mutexes: fences and
// the documented serialization exemption may be held across round
// trips.
func heldDataKeys(held map[string]token.Pos) []string {
	var keys []string
	for k := range held {
		if !facts.IsExemptFromBlockingRule(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// noteFence records direct (non-loop) fence acquisitions for the
// back-to-back distinct-expression check.
func (w *walker) noteFence(key string, pos token.Pos, inLoop bool) {
	if !inLoop && isFence(key) {
		w.directFence = append(w.directFence, fenceAcq{expr: key, pos: pos})
	}
}

// checkFenceOrder flags a function that directly acquires two distinct
// fence mutexes in sequence: nothing guarantees the textual order
// matches object-ID order, so the multi-acquisition must go through a
// sorted loop instead.
func (w *walker) checkFenceOrder(fn *ast.FuncDecl) {
	for i := 1; i < len(w.directFence); i++ {
		if w.directFence[i].expr != w.directFence[0].expr {
			w.pass.Reportf(w.directFence[i].pos, "second fence mutex %s acquired while %s may still be held: multi-acquisition must be sorted by object ID (lock via a sorted loop)",
				w.directFence[i].expr, w.directFence[0].expr)
			return
		}
	}
}

// sortedBefore reports whether a sort call appears before pos in the
// enclosing function.
func (w *walker) sortedBefore(pos token.Pos) bool {
	i := sort.Search(len(w.sortPos), func(i int) bool { return w.sortPos[i] >= pos })
	return i > 0
}

// sortPositions collects the positions of sort/slices ordering calls
// in the function body, ascending.
func sortPositions(pass *framework.Pass, body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if isOrderingCall(fn.Pkg().Path(), fn.Name()) {
			out = append(out, call.Pos())
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isOrderingCall matches the standard-library sorting entry points
// (package sort's Slice/Sort family and package slices' Sort family).
func isOrderingCall(pkgPath, name string) bool {
	switch pkgPath {
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable",
			"Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.Contains(name, "Sort")
	}
	return false
}

func (w *walker) heldDataLocks(held map[string]token.Pos) []string {
	var keys []string
	for k := range held {
		if !isFence(k) && !w.exempt[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func isFence(key string) bool {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		key = key[i+1:]
	}
	return facts.FenceNames[key]
}

func clone(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
