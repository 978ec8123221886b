package framework

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CalleeFunc resolves the function or method a call expression invokes
// (nil for indirect calls through function values or conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncIs reports whether fn is the named function or method: pkgPath
// is the defining package, recv the receiver type name ("" for a
// plain function, the named type for methods — pointerness ignored,
// interface methods match by the interface's name).
func FuncIs(fn *types.Func, pkgPath, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		return recv == "" && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != recv {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

// namedOf unwraps pointers and aliases down to the named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := types.Unalias(t).(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// StringArg returns the compile-time constant string value of call
// argument i, if it is one.
func StringArg(info *types.Info, call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	return StringValue(info, call.Args[i])
}

// StringValue returns the compile-time constant string value of an
// expression, if it has one.
func StringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// IsStringLiteral reports whether call argument i is written as a
// string literal at the call site (as opposed to a named constant).
func IsStringLiteral(call *ast.CallExpr, i int) bool {
	if i >= len(call.Args) {
		return false
	}
	lit, ok := ast.Unparen(call.Args[i]).(*ast.BasicLit)
	return ok && lit.Kind.String() == "STRING"
}
