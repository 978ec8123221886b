// Package pooledbuf implements the muninvet analyzer that enforces the
// bufpool ownership discipline from docs/ARCHITECTURE.md ("Buffer
// ownership & lifecycle"): a *bufpool.Buffer obtained from bufpool.Get
// — or from any function that returns one, which hands its caller the
// ownership — must reach exactly one ownership end — Release, or a
// hand-over to the transport writer via SendOwned / CallStartOwned /
// ReplyOwned — and must not be touched on any path after its ownership
// ended.
//
// The check is intraprocedural and deliberately conservative:
//
//   - leak: a buffer that is never released, never handed to any
//     call, never returned, stored or captured cannot reach its pool
//     again. (Passing the buffer to any function, returning it, or
//     storing it counts as a potential transfer, so helpers that hand
//     ownership up or sideways stay clean.)
//
//   - dropped on return: a return statement reached while the buffer
//     is still certainly this function's — nothing since it was
//     obtained has released it, handed it over, passed it on, stored
//     or captured it (reading or writing its B field does none of
//     these) — and that does not return it, leaks it on that path. This
//     is the handler that builds its reply under the object lock and
//     then takes an early exit.
//
//   - use after transfer: once a statement unconditionally ends
//     ownership (v.Release(), SendOwned(v), CallStartOwned(…, v),
//     ReplyOwned(…, v), go f(v)), any later statement in the same block
//     that mentions the variable — including uses nested in branches,
//     loops or closures under those statements — races the pool's next
//     owner. A transfer inside a conditional branch only poisons the
//     rest of that branch, so release-and-return error paths stay
//     clean; a deferred Release ends ownership at function exit and
//     poisons nothing.
package pooledbuf

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"munin/internal/analysis/framework"
)

const bufpoolPath = "munin/internal/bufpool"

// Analyzer is the pooledbuf analyzer.
var Analyzer = &framework.Analyzer{
	Name: "pooledbuf",
	Doc:  "enforce the bufpool single-owner discipline: every Get reaches exactly one Release/SendOwned, no use after hand-over",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkFunc analyzes one function (or literal) body. Nested function
// literals are analyzed on their own by run; here they only matter as
// capture sites for this body's buffers.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	owners := map[types.Object]token.Pos{} // owned buffers -> where they were obtained
	collectGets(pass, body, owners)
	if len(owners) == 0 {
		return
	}
	for obj, pos := range owners {
		if !hasOwnershipEvent(pass, body, obj) {
			pass.Reportf(pos, "pooled buffer %q is never released or handed over (a pooled buffer requires exactly one Release/SendOwned)", obj.Name())
			delete(owners, obj) // one report per buffer: skip the per-return check
		}
	}
	checkBlock(pass, body.List, owners, nil)
}

// collectGets records the variables this body assigns a pooled buffer
// it obtained — from bufpool.Get, or from any call with a
// *bufpool.Buffer result — skipping nested function literals (they own
// their own buffers).
func collectGets(pass *framework.Pass, body *ast.BlockStmt, out map[types.Object]token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for obj, pos := range obtained(pass, as) {
				// Assigning to a variable declared outside this body (a
				// captured variable, a named result) stores the buffer
				// for that scope's owner.
				local := body.Pos() <= obj.Pos() && obj.Pos() < body.End()
				if _, seen := out[obj]; local && !seen {
					out[obj] = pos
				}
			}
		}
		return true
	})
}

// obtained returns the variables as assigns a pooled buffer fresh from
// a call: `v := bufpool.Get(n)`, `v = encode(x)`, `v, b := build(n)`.
func obtained(pass *framework.Pass, as *ast.AssignStmt) map[types.Object]token.Pos {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	var out map[types.Object]token.Pos
	for _, lhs := range as.Lhs {
		obj := framework.ObjectOf(pass.TypesInfo, lhs)
		if obj == nil || !isBuffer(obj.Type()) {
			continue
		}
		if out == nil {
			out = map[types.Object]token.Pos{}
		}
		out[obj] = call.Pos()
	}
	return out
}

// isBuffer reports whether t is *bufpool.Buffer.
func isBuffer(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	return ok && named.Obj().Name() == "Buffer" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == bufpoolPath
}

// hasOwnershipEvent reports whether obj's ownership can end or escape
// anywhere in the body: a method call on it, an appearance as a call
// argument, in a return, on either side of a later assignment, inside
// a composite literal, or captured by a function literal.
func hasOwnershipEvent(pass *framework.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			for _, arg := range nn.Args {
				if refersTo(pass.TypesInfo, arg, obj) {
					found = true
				}
			}
			if sel, ok := ast.Unparen(nn.Fun).(*ast.SelectorExpr); ok {
				if framework.ObjectOf(pass.TypesInfo, sel.X) == obj {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range nn.Results {
				if refersTo(pass.TypesInfo, r, obj) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range nn.Rhs {
				// The defining Get assignment itself does not count.
				if _, isGet := r.(*ast.CallExpr); isGet && len(nn.Rhs) == 1 &&
					len(nn.Lhs) == 1 && framework.ObjectOf(pass.TypesInfo, nn.Lhs[0]) == obj {
					continue
				}
				if refersTo(pass.TypesInfo, r, obj) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range nn.Elts {
				if refersTo(pass.TypesInfo, el, obj) {
					found = true
				}
			}
		case *ast.FuncLit:
			if mentions(pass.TypesInfo, nn.Body, obj) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// checkBlock walks one statement list: after a statement that
// unconditionally transfers a tracked buffer, any later statement
// mentioning it is reported. Nested blocks are checked recursively
// with the same owner set (transfers inside them stay local to them).
//
// held is the set of buffers that are certainly still this function's
// on entry to the list (see the package comment, "dropped on return");
// a return statement that does not mention a held buffer drops it.
func checkBlock(pass *framework.Pass, stmts []ast.Stmt, owners, held map[types.Object]token.Pos) {
	held = maps.Clone(held)
	if held == nil {
		held = map[types.Object]token.Pos{}
	}
	letGo := func(n ast.Node) {
		for obj := range held {
			if passesOn(pass.TypesInfo, n, obj) {
				delete(held, obj)
			}
		}
	}
	dead := map[types.Object]token.Pos{} // transferred -> transfer position
	for _, s := range stmts {
		// A statement that uses an already-dead buffer is the bug.
		for obj, tpos := range dead {
			if mentions(pass.TypesInfo, s, obj) {
				pass.Reportf(s.Pos(), "use of %q after its ownership was transferred at line %d (buffer may already be reused by another owner)",
					obj.Name(), pass.Fset.Position(tpos).Line)
			}
		}
		if ret, ok := s.(*ast.ReturnStmt); ok {
			for obj, pos := range held {
				if !mentions(pass.TypesInfo, ret, obj) {
					pass.Reportf(ret.Pos(), "pooled buffer %q is dropped by this return: obtained at line %d, neither released nor handed over on this path",
						obj.Name(), pass.Fset.Position(pos).Line)
				}
			}
		}
		// Recurse into nested statement lists before recording this
		// statement's own transfers: a conditional transfer poisons only
		// the branch it is in. What the statement evaluates before it
		// branches (an if's init and condition) may already have passed a
		// held buffer on.
		for _, h := range headerNodes(s) {
			letGo(h)
		}
		for _, nested := range nestedBlocks(s) {
			checkBlock(pass, nested, owners, held)
		}
		for obj, pos := range unconditionalTransfers(pass, s, owners) {
			if prev, ok := dead[obj]; ok {
				_ = prev // second transfer was already reported as a use above
				continue
			}
			dead[obj] = pos
		}
		letGo(s)
		if as, ok := s.(*ast.AssignStmt); ok {
			for obj, pos := range obtained(pass, as) {
				if _, tracked := owners[obj]; tracked {
					held[obj] = pos
				}
			}
		}
	}
}

// headerNodes returns what a compound statement evaluates before it
// enters any of its nested blocks; for a simple statement there is
// nothing nested and the caller looks at the statement itself.
func headerNodes(s ast.Stmt) []ast.Node {
	var out []ast.Node
	add := func(n ast.Node) { // every field below is interface-typed: absent means nil
		if n != nil {
			out = append(out, n)
		}
	}
	switch st := s.(type) {
	case *ast.IfStmt:
		add(st.Init)
		add(st.Cond)
		if els, ok := st.Else.(*ast.IfStmt); ok {
			out = append(out, headerNodes(els)...)
		}
	case *ast.ForStmt:
		add(st.Init)
		add(st.Cond)
		add(st.Post)
	case *ast.RangeStmt:
		add(st.X)
	case *ast.SwitchStmt:
		add(st.Init)
		add(st.Tag)
	case *ast.TypeSwitchStmt:
		add(st.Init)
		add(st.Assign)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			add(c.(*ast.CommClause).Comm)
		}
	case *ast.LabeledStmt:
		return headerNodes(st.Stmt)
	}
	return out
}

// passesOn reports whether n uses obj in any way that could end or
// share this function's ownership of the buffer: everything except
// reading or writing its B field (v.B), which touches the bytes and
// leaves the handle where it is.
func passesOn(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := nn.(*ast.SelectorExpr); ok && sel.Sel.Name == "B" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == obj {
				return false
			}
		}
		if id, ok := nn.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// nestedBlocks returns the statement lists nested under s.
func nestedBlocks(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch st := s.(type) {
	case *ast.BlockStmt:
		out = append(out, st.List)
	case *ast.IfStmt:
		out = append(out, st.Body.List)
		if st.Else != nil {
			out = append(out, nestedBlocks(st.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, st.Body.List)
	case *ast.RangeStmt:
		out = append(out, st.Body.List)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			out = append(out, c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			out = append(out, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			out = append(out, c.(*ast.CommClause).Body)
		}
	case *ast.LabeledStmt:
		out = append(out, nestedBlocks(st.Stmt)...)
	}
	return out
}

// unconditionalTransfers returns the tracked buffers whose ownership
// statement s ends on every path through s: Release / SendOwned /
// CallStartOwned / ReplyOwned / go-statement hand-offs in the statement's
// always-evaluated expressions (an if's init/cond but not its body; a
// defer's Release counts as an ordered end only at function exit, so
// it is skipped here).
func unconditionalTransfers(pass *framework.Pass, s ast.Stmt, owners map[types.Object]token.Pos) map[types.Object]token.Pos {
	var exprs []ast.Expr
	switch st := s.(type) {
	case *ast.ExprStmt:
		exprs = append(exprs, st.X)
	case *ast.AssignStmt:
		exprs = append(exprs, st.Rhs...)
	case *ast.ReturnStmt:
		exprs = append(exprs, st.Results...)
	case *ast.IfStmt:
		if init, ok := st.Init.(*ast.AssignStmt); ok {
			exprs = append(exprs, init.Rhs...)
		}
		exprs = append(exprs, st.Cond)
	case *ast.GoStmt:
		// Handing a pooled buffer to a goroutine transfers ownership as
		// far as this function is concerned.
		exprs = append(exprs, st.Call)
	}
	out := map[types.Object]token.Pos{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for obj, pos := range transfersOf(pass, call, owners) {
				out[obj] = pos
			}
			return true
		})
	}
	// go f(v): any tracked buffer in the args is handed off even if f
	// is not a known transfer function.
	if g, ok := s.(*ast.GoStmt); ok {
		for _, arg := range g.Call.Args {
			if obj := framework.ObjectOf(pass.TypesInfo, arg); obj != nil {
				if _, tracked := owners[obj]; tracked {
					out[obj] = arg.Pos()
				}
			}
		}
	}
	return out
}

// handsOver names the transport and vkernel entry points that take
// ownership of the pooled wire buffer passed as their last argument,
// unconditionally: success or failure, the callee releases it.
var handsOver = map[string]bool{"SendOwned": true, "CallStartOwned": true, "ReplyOwned": true}

// transfersOf returns the tracked buffers whose ownership this single
// call ends.
func transfersOf(pass *framework.Pass, call *ast.CallExpr, owners map[types.Object]token.Pos) map[types.Object]token.Pos {
	out := map[types.Object]token.Pos{}
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return out
	}
	track := func(e ast.Expr) {
		if obj := framework.ObjectOf(pass.TypesInfo, e); obj != nil {
			if _, tracked := owners[obj]; tracked {
				out[obj] = call.Pos()
			}
		}
	}
	switch {
	case framework.FuncIs(fn, bufpoolPath, "Buffer", "Release"):
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			track(sel.X)
		}
	case handsOver[fn.Name()] && len(call.Args) >= 1:
		track(call.Args[len(call.Args)-1])
	}
	return out
}

// refersTo reports whether expr mentions obj anywhere.
func refersTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	return mentionsNode(info, expr, obj)
}

// mentions reports whether the statement mentions obj anywhere,
// including nested closures (a captured dead buffer is still a use).
func mentions(info *types.Info, s ast.Stmt, obj types.Object) bool {
	return mentionsNode(info, s, obj)
}

func mentionsNode(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		if id, ok := nn.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}
