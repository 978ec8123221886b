// Package msgdispatch checks the message-plumbing invariants that sit
// between the msg.Kind constant tables and the vkernel's range
// dispatcher — the places where adding, removing, or reordering a
// protocol message is easy to get subtly wrong:
//
//   - Exactly-once dispatch: every Kind constant a package declares
//     (excluding the …Base/…Max range markers) must appear in exactly
//     one case arm of the package's `switch req.Kind` dispatch, and
//     must fall inside one of the package's registered
//     k.Handle(lo, hi, …) ranges. Deleting a case arm, forgetting one
//     for a new kind, or declaring a kind past the registered range
//     all fail the build instead of silently dropping messages (the
//     vkernel drops unhandled kinds like an unbound port).
//
//   - Reply on every path: a kind used in a Kernel Call (the caller
//     parks on the reply) must have a handler that, on every return
//     path, either replies, forwards/parks the request (any use of
//     the request value beyond reading its fields), counts a
//     documented drop (a stats counter whose name contains "drop"),
//     or panics. A wire resolver — a function of the package whose
//     name ends in "FromWire" — counts its own drop when it returns
//     nil, so the branch a handler takes on `v == nil`, v assigned
//     from a resolver, counts as resolved. A silent `return` in a Call handler leaves the
//     caller parked until the peer-down sweep — a hang with no
//     counter to find it by.
//
//   - Codec agreement: a straight-line encodeX/decodeX helper pair
//     must write and read the same wire-primitive sequence (Int and
//     I64 both widen to U64 on the wire and are compatible; U32
//     versus U64 is not).
package msgdispatch

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"munin/internal/analysis/framework"
)

// Analyzer is the msgdispatch analyzer.
var Analyzer = &framework.Analyzer{
	Name: "msgdispatch",
	Doc:  "message kinds dispatched exactly once within registered ranges; Call handlers reply on every path; codec pairs agree",
	Run:  run,
}

const msgPkgPath = "munin/internal/msg"

func run(pass *framework.Pass) error {
	c := &checker{pass: pass, visited: map[*types.Func]bool{}}
	c.collect()
	c.checkDispatch()
	c.checkHandleRanges()
	c.checkReplyPaths()
	c.checkCodecs()
	return nil
}

type checker struct {
	pass    *framework.Pass
	visited map[*types.Func]bool // handler funcs already path-checked

	kinds     map[*types.Const]*ast.Ident // package-level msg.Kind consts (markers excluded)
	switches  []*dispatchSwitch
	callKinds map[*types.Const]bool // kinds the package uses in Kernel Call-family sends
	ranges    [][2]constant.Value   // registered k.Handle(lo, hi) ranges
	decls     map[string]*ast.FuncDecl
}

type dispatchSwitch struct {
	stmt *ast.SwitchStmt
	req  types.Object // the *msg.Msg variable the switch dispatches on
	arms map[*types.Const][]*ast.CaseClause
}

// collect indexes the package: kind constants, dispatch switches,
// Call-family kind uses, Handle registrations, function declarations.
func (c *checker) collect() {
	c.kinds = map[*types.Const]*ast.Ident{}
	c.callKinds = map[*types.Const]bool{}
	c.decls = map[string]*ast.FuncDecl{}
	info := c.pass.TypesInfo

	for _, file := range c.pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					c.decls[fd.Name.Name] = fd
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ValueSpec:
				for _, name := range node.Names {
					cst, ok := info.Defs[name].(*types.Const)
					if !ok || !isKindType(cst.Type()) || isRangeMarker(cst.Name()) {
						continue
					}
					if cst.Parent() == c.pass.Pkg.Scope() {
						c.kinds[cst] = name
					}
				}
			case *ast.SwitchStmt:
				if ds := c.dispatchSwitchOf(node); ds != nil {
					c.switches = append(c.switches, ds)
				}
			case *ast.CallExpr:
				c.collectKernelUse(node)
			}
			return true
		})
	}
}

// dispatchSwitchOf recognizes `switch req.Kind { … }` on a *msg.Msg.
func (c *checker) dispatchSwitchOf(sw *ast.SwitchStmt) *dispatchSwitch {
	sel, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Kind" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil || !isMsgPtr(obj.Type()) {
		return nil
	}
	ds := &dispatchSwitch{stmt: sw, req: obj, arms: map[*types.Const][]*ast.CaseClause{}}
	for _, clause := range sw.Body.List {
		cc := clause.(*ast.CaseClause)
		for _, e := range cc.List {
			if cst := c.constOf(e); cst != nil {
				ds.arms[cst] = append(ds.arms[cst], cc)
			}
		}
	}
	return ds
}

// collectKernelUse records Call-family kind arguments and Handle
// registration ranges.
func (c *checker) collectKernelUse(call *ast.CallExpr) {
	fn := framework.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "Call"),
		framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "CallStart"),
		framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "CallStartOwned"),
		framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "CallInline"),
		framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "MulticastCall"),
		framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "MulticastCallStart"):
		if len(call.Args) >= 2 {
			if cst := c.constOf(call.Args[1]); cst != nil {
				c.callKinds[cst] = true
			}
		}
	case framework.FuncIs(fn, "munin/internal/vkernel", "Kernel", "Handle"):
		if len(call.Args) >= 2 {
			lo := c.pass.TypesInfo.Types[call.Args[0]].Value
			hi := c.pass.TypesInfo.Types[call.Args[1]].Value
			if lo != nil && hi != nil {
				c.ranges = append(c.ranges, [2]constant.Value{lo, hi})
			}
		}
	}
}

// constOf resolves an expression to the constant it names, if any.
func (c *checker) constOf(e ast.Expr) *types.Const {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	cst, _ := c.pass.TypesInfo.Uses[id].(*types.Const)
	return cst
}

// checkDispatch enforces exactly-once dispatch for every declared kind
// in packages that have a dispatch switch.
func (c *checker) checkDispatch() {
	if len(c.switches) == 0 {
		return
	}
	for cst, ident := range c.kinds {
		var arms []*ast.CaseClause
		for _, ds := range c.switches {
			arms = append(arms, ds.arms[cst]...)
		}
		switch {
		case len(arms) == 0:
			c.pass.Reportf(ident.Pos(), "message kind %s is not dispatched: no `switch req.Kind` case arm handles it — the vkernel will drop it like an unbound port", cst.Name())
		case len(arms) > 1:
			c.pass.Reportf(arms[1].Pos(), "message kind %s is dispatched by %d case arms: exactly one arm must own each kind", cst.Name(), len(arms))
		}
	}
}

// checkHandleRanges flags kinds outside every registered
// k.Handle(lo, hi) range. Only kinds the package dispatches or Calls
// are held to this: a Call to an unbound kind parks the caller
// forever, and a dispatch arm for one is dead code — but a plain Send
// to an unbound kind is documented vkernel behavior (dropped like an
// unbound port; the mp package models one-way traffic that way).
func (c *checker) checkHandleRanges() {
	if len(c.ranges) == 0 {
		return
	}
	for cst, ident := range c.kinds {
		if !c.callKinds[cst] && !c.dispatched(cst) {
			continue
		}
		v := cst.Val()
		covered := false
		for _, r := range c.ranges {
			if constant.Compare(r[0], token.LEQ, v) && constant.Compare(v, token.LEQ, r[1]) {
				covered = true
				break
			}
		}
		if !covered {
			c.pass.Reportf(ident.Pos(), "message kind %s (= %s) lies outside every k.Handle range this package registers: messages of this kind will never reach the dispatch switch", cst.Name(), v)
		}
	}
}

// dispatched reports whether any dispatch switch has an arm for cst.
func (c *checker) dispatched(cst *types.Const) bool {
	for _, ds := range c.switches {
		if len(ds.arms[cst]) > 0 {
			return true
		}
	}
	return false
}

// checkReplyPaths verifies every Call-kind case arm resolves the
// request on all paths.
func (c *checker) checkReplyPaths() {
	for _, ds := range c.switches {
		for cst, arms := range ds.arms {
			if !c.callKinds[cst] {
				continue
			}
			for _, arm := range arms {
				w := &pathWalker{c: c, req: ds.req, kind: cst.Name()}
				resolved, terminated := w.stmts(arm.Body, false)
				if !terminated && !resolved {
					c.pass.Reportf(arm.Pos(), "handler arm for Call kind %s can fall through without replying, forwarding the request, or counting a documented drop — the caller stays parked", cst.Name())
				}
			}
		}
	}
}

// pathWalker is the branch-sensitive reply-path analysis for one
// request variable: "resolved" once the request value is used beyond
// field reads (replied, forwarded, parked), a drop counter is bumped,
// or a deferred resolution is registered.
type pathWalker struct {
	c    *checker
	req  types.Object
	kind string
	// wire holds the variables assigned from a wire resolver's result.
	wire map[types.Object]bool
}

// stmts walks a statement list; reports any return reached while
// unresolved. Returns (resolved at fall-through, all paths terminated).
func (w *pathWalker) stmts(list []ast.Stmt, resolved bool) (bool, bool) {
	for _, s := range list {
		var term bool
		resolved, term = w.stmt(s, resolved)
		if term {
			return resolved, true
		}
	}
	return resolved, false
}

func (w *pathWalker) stmt(s ast.Stmt, resolved bool) (bool, bool) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		if !resolved && !w.exprResolves(st) {
			w.c.pass.Reportf(st.Pos(), "handler for Call kind %s returns without replying, forwarding the request, or counting a documented drop — the caller stays parked until the peer-down sweep", w.kind)
		}
		return resolved, true
	case *ast.ExprStmt:
		if isPanic(w.c.pass.TypesInfo, st.X) {
			return resolved, true
		}
		return resolved || w.exprResolves(st), false
	case *ast.DeferStmt:
		// A deferred reply/forward resolves every path from here on.
		return resolved || w.exprResolves(st.Call), false
	case *ast.GoStmt:
		// The goroutine owns the request from here (async reply).
		return resolved || w.exprResolves(st.Call), false
	case *ast.AssignStmt:
		w.noteWireResolve(st)
		return resolved || w.exprResolves(s), false
	case *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
		return resolved || w.exprResolves(s), false
	case *ast.IfStmt:
		if st.Init != nil {
			resolved, _ = w.stmt(st.Init, resolved)
		}
		resolved = resolved || w.exprResolves(st.Cond)
		bodyRes, bodyTerm := w.stmts(st.Body.List, resolved || w.wireMiss(st.Cond))
		if st.Else == nil {
			// Fall-through includes the cond-false path: resolution
			// inside the body does not carry past it.
			return resolved, false
		}
		elseRes, elseTerm := false, false
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseRes, elseTerm = w.stmts(e.List, resolved)
		default:
			elseRes, elseTerm = w.stmt(st.Else, resolved)
		}
		covered := (bodyTerm || bodyRes) && (elseTerm || elseRes)
		return resolved || covered, bodyTerm && elseTerm
	case *ast.BlockStmt:
		return w.stmts(st.List, resolved)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.switchStmt(st, resolved)
	case *ast.SelectStmt:
		// A select with no default blocks until one clause runs, so
		// the clauses cover every path.
		allCover, allTerm, hasDefault := true, true, false
		for _, clause := range st.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			}
			res, term := w.stmts(cc.Body, resolved)
			allCover = allCover && (term || res)
			allTerm = allTerm && term
		}
		_ = hasDefault
		return resolved || allCover, allTerm && len(st.Body.List) > 0
	case *ast.ForStmt:
		if st.Init != nil {
			resolved, _ = w.stmt(st.Init, resolved)
		}
		w.stmts(st.Body.List, resolved)
		return resolved, false
	case *ast.RangeStmt:
		resolved = resolved || w.exprResolves(st.X)
		w.stmts(st.Body.List, resolved)
		return resolved, false
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, resolved)
	case *ast.BranchStmt:
		// break/continue/goto end this path without leaving the
		// handler; resolution requirements re-apply wherever control
		// resumes, which the enclosing walk covers conservatively.
		return resolved, true
	}
	return resolved, false
}

func (w *pathWalker) switchStmt(s ast.Stmt, resolved bool) (bool, bool) {
	var body *ast.BlockStmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			resolved, _ = w.stmt(st.Init, resolved)
		}
		if st.Tag != nil {
			resolved = resolved || w.exprResolves(st.Tag)
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		body = st.Body
	}
	hasDefault := false
	allCover, allTerm := true, true
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		res, term := w.stmts(cc.Body, resolved)
		allCover = allCover && (term || res)
		allTerm = allTerm && term
	}
	// Without a default the zero-case path falls through unresolved.
	covered := hasDefault && allCover
	return resolved || covered, hasDefault && allTerm && len(body.List) > 0
}

// noteWireResolve records `v := resolverFromWire(...)`.
func (w *pathWalker) noteWireResolve(as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || !w.isWireResolve(as.Rhs[0]) {
		return
	}
	if obj := w.c.pass.TypesInfo.ObjectOf(id); obj != nil {
		if w.wire == nil {
			w.wire = map[types.Object]bool{}
		}
		w.wire[obj] = true
	}
}

// isWireResolve reports whether e calls a wire resolver: a function or
// method of this package whose name ends in "FromWire".
func (w *pathWalker) isWireResolve(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := framework.CalleeFunc(w.c.pass.TypesInfo, call)
	return fn != nil && fn.Pkg() == w.c.pass.Pkg && strings.HasSuffix(fn.Name(), "FromWire")
}

// wireMiss reports whether cond is `v == nil` for a resolver's result v,
// or a resolver call compared with nil directly: its true branch is the
// one where the resolver counted a drop.
func (w *pathWalker) wireMiss(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	x := be.X
	if isNil(w.c.pass.TypesInfo, x) {
		x = be.Y
	} else if !isNil(w.c.pass.TypesInfo, be.Y) {
		return false
	}
	if w.isWireResolve(x) {
		return true
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && w.wire[w.c.pass.TypesInfo.ObjectOf(id)]
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// exprResolves reports whether the node resolves the request: a bare
// use of the request value (anything beyond reading its fields), a
// drop-counter bump, or a call into a local handler function that is
// itself path-checked.
func (w *pathWalker) exprResolves(n ast.Node) bool {
	if n == nil {
		return false
	}
	resolved := false
	// Field reads (req.Payload, req.Kind, …) do not resolve; note the
	// identifiers appearing as a selector base so the bare-use scan
	// below can skip them.
	fieldBase := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				fieldBase[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		if resolved {
			return false
		}
		switch node := x.(type) {
		case *ast.CallExpr:
			if w.dropCounterAdd(node) {
				resolved = true
				return false
			}
			// Forwarding into a local handler: check that handler's
			// paths too (once), then treat the forward as resolution.
			if w.forwardsToLocal(node) {
				resolved = true
				return false
			}
		case *ast.Ident:
			if w.c.pass.TypesInfo.Uses[node] == w.req && !fieldBase[node] {
				resolved = true
				return false
			}
		}
		return true
	})
	return resolved
}

// dropCounterAdd recognizes a stats counter bump whose registered name
// documents a drop (contains "drop").
func (w *pathWalker) dropCounterAdd(call *ast.CallExpr) bool {
	fn := framework.CalleeFunc(w.c.pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Add" && fn.Name() != "Inc") {
		return false
	}
	if !framework.FuncIs(fn, "munin/internal/stats", "Set", fn.Name()) {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	tv := w.c.pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return strings.Contains(constant.StringVal(tv.Value), "drop")
}

// forwardsToLocal reports whether call passes the request to a
// function or method declared in this package, and if so recursively
// path-checks that handler with its own request parameter.
func (w *pathWalker) forwardsToLocal(call *ast.CallExpr) bool {
	argIdx := -1
	for i, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && w.c.pass.TypesInfo.Uses[id] == w.req {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return false
	}
	fn := framework.CalleeFunc(w.c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != w.c.pass.Pkg {
		return false
	}
	decl := w.declOf(fn)
	if decl == nil || decl.Body == nil {
		return true // request escaped into the package API; resolved here
	}
	if w.c.visited[fn] {
		return true
	}
	w.c.visited[fn] = true
	param := paramObject(w.c.pass.TypesInfo, decl, argIdx)
	if param == nil {
		return true
	}
	inner := &pathWalker{c: w.c, req: param, kind: w.kind}
	resolved, terminated := inner.stmts(decl.Body.List, false)
	if !terminated && !resolved {
		w.c.pass.Reportf(decl.Name.Pos(), "handler %s for Call kind %s can reach the end of the function without replying, forwarding the request, or counting a documented drop — the caller stays parked", fn.Name(), w.kind)
	}
	return true
}

// declOf finds the FuncDecl for fn in this package (methods included).
func (w *pathWalker) declOf(fn *types.Func) *ast.FuncDecl {
	for _, file := range w.c.pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if w.c.pass.TypesInfo.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// paramObject maps a call-site argument index to the callee's
// parameter object.
func paramObject(info *types.Info, decl *ast.FuncDecl, idx int) types.Object {
	i := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			if i == idx {
				return info.Defs[name]
			}
			i++
		}
	}
	return nil
}

// ---- codec agreement ----

// codecOp is one wire operation: the method name as written and the
// wire primitive it lowers to.
type codecOp struct {
	name string
	wire string
	pos  token.Pos
}

// wirePrimitive maps derived codec methods to their wire encoding;
// methods not listed encode as themselves.
var wirePrimitive = map[string]string{
	"I64": "U64", "Int": "U64", "F64": "U64",
	"Bool": "U8",
	"Str":  "BytesN",
}

// nonDataOps are Builder/Reader methods that move no wire data.
var nonDataOps = map[string]bool{
	"Reset": true, "Skip": true, "Bytes": true, "Len": true,
	"Err": true, "Fail": true, "Remaining": true,
}

// checkCodecs compares each straight-line encodeX/decodeX pair.
func (c *checker) checkCodecs() {
	for name, enc := range c.decls {
		if !strings.HasPrefix(name, "encode") {
			continue
		}
		dec, ok := c.decls["decode"+strings.TrimPrefix(name, "encode")]
		if !ok || enc.Body == nil || dec.Body == nil {
			continue
		}
		if hasControlFlow(enc.Body) || hasControlFlow(dec.Body) {
			continue // not a straight-line pair; sequence comparison unsound
		}
		writes := c.codecOps(enc, "Builder")
		reads := c.codecOps(dec, "Reader")
		for i := 0; i < len(writes) && i < len(reads); i++ {
			if writes[i].wire != reads[i].wire {
				c.pass.Reportf(reads[i].pos, "codec mismatch: %s reads %s at step %d but %s writes %s — field order or width disagree",
					dec.Name.Name, reads[i].name, i+1, enc.Name.Name, writes[i].name)
				return
			}
		}
		if len(writes) != len(reads) {
			c.pass.Reportf(dec.Name.Pos(), "codec mismatch: %s writes %d fields but %s reads %d",
				enc.Name.Name, len(writes), dec.Name.Name, len(reads))
		}
	}
}

// codecOps collects the msg.Builder or msg.Reader data operations in
// body, in source order (chained calls parse outside-in, so sort by
// the method-name position).
func (c *checker) codecOps(decl *ast.FuncDecl, recv string) []codecOp {
	var ops []codecOp
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeFunc(c.pass.TypesInfo, call)
		if fn == nil || !framework.FuncIs(fn, msgPkgPath, recv, fn.Name()) {
			return true
		}
		if nonDataOps[fn.Name()] {
			return true
		}
		wire := fn.Name()
		if p, ok := wirePrimitive[wire]; ok {
			wire = p
		}
		sel := call.Fun.(*ast.SelectorExpr)
		ops = append(ops, codecOp{name: fn.Name(), wire: wire, pos: sel.Sel.Pos()})
		return true
	})
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].pos < ops[j-1].pos; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	return ops
}

// hasControlFlow reports whether body contains branching that makes a
// linear op-sequence comparison unsound.
func hasControlFlow(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			found = true
			return false
		}
		return true
	})
	return found
}

// ---- type helpers ----

// isKindType reports whether t is munin/internal/msg.Kind.
func isKindType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Kind" && obj.Pkg() != nil && obj.Pkg().Path() == msgPkgPath
}

// isMsgPtr reports whether t is *munin/internal/msg.Msg.
func isMsgPtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Msg" && obj.Pkg() != nil && obj.Pkg().Path() == msgPkgPath
}

// isRangeMarker reports whether a kind constant is a range delimiter
// rather than a message kind.
func isRangeMarker(name string) bool {
	return strings.HasSuffix(name, "Base") || strings.HasSuffix(name, "Max")
}

// isPanic reports whether e is a call to the builtin panic.
func isPanic(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
