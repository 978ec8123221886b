// Package counterreg implements the muninvet analyzer that keeps
// counter names honest. Counter names are load-bearing strings: the
// benchmark harness reads them back, the ARCHITECTURE.md table
// documents them, and the experiment tests pin figures derived from
// them — so a typo in an Inc/Add site silently creates a new counter
// and zeroes whatever was reading the old one.
//
// The rule: every compile-time-constant name reaching a stats.Set
// sink (Add, Get, Counter) or a vkernel Counters() map index must be
// registered in internal/stats/names.go, and call sites in production
// code must spell it via the registry constant, not a string literal.
// Dynamic names (per-class families built from ClassOf etc.) are
// outside the analyzer's reach and are covered by the registry's
// parametrized families instead.
package counterreg

import (
	"go/ast"

	"munin/internal/analysis/framework"
	"munin/internal/stats"
)

// Analyzer is the counterreg analyzer.
var Analyzer = &framework.Analyzer{
	Name: "counterreg",
	Doc:  "counter names must come from the internal/stats registry: no unregistered or ad-hoc literal counter names",
	Run:  run,
}

const statsPath = "munin/internal/stats"

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, nn)
			case *ast.IndexExpr:
				checkCountersIndex(pass, nn)
			}
			return true
		})
	}
	return nil
}

// checkCall validates the name argument of stats.Set sinks.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sink := framework.FuncIs(fn, statsPath, "Set", "Add") ||
		framework.FuncIs(fn, statsPath, "Set", "Get") ||
		framework.FuncIs(fn, statsPath, "Set", "Counter")
	if !sink {
		return
	}
	name, ok := framework.StringArg(pass.TypesInfo, call, 0)
	if !ok {
		return // dynamic name: covered by the registry's families
	}
	switch {
	case !stats.IsRegistered(name):
		pass.Reportf(call.Args[0].Pos(), "counter name %q is not registered in internal/stats/names.go: register it (and document it in the ARCHITECTURE.md counters table) or fix the typo", name)
	case framework.IsStringLiteral(call, 0) && pass.Pkg.Path() != statsPath:
		pass.Reportf(call.Args[0].Pos(), "counter name %q spelled as a literal: use the stats registry constant so renames stay atomic", name)
	}
}

// checkCountersIndex validates literal keys indexing a vkernel
// Counters() snapshot — the read-side equivalent of an Add sink.
func checkCountersIndex(pass *framework.Pass, idx *ast.IndexExpr) {
	call, ok := ast.Unparen(idx.X).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Counters" {
		return
	}
	name, ok := framework.StringValue(pass.TypesInfo, idx.Index)
	if !ok {
		return
	}
	if !stats.IsRegistered(name) {
		pass.Reportf(idx.Index.Pos(), "counter name %q read from a Counters() snapshot is not registered in internal/stats/names.go", name)
	}
}
