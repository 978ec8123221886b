// Package framework is a self-contained, stdlib-only implementation of
// the subset of golang.org/x/tools/go/analysis that the muninvet suite
// needs: an Analyzer value with a Run function over a type-checked
// package, a Pass carrying the ASTs and type information, and
// Diagnostics reported against token positions.
//
// The real x/tools module is the natural home for this shape, but this
// repository builds offline with no dependencies beyond the standard
// library, so the driver is vendored here in miniature. The API
// mirrors x/tools deliberately — Analyzer{Name, Doc, Run}, Pass with
// Fset/Files/Pkg/TypesInfo/Report — so the analyzers would port to a
// real multichecker by changing one import path.
//
// Loading is built on the go command rather than a from-source
// recursive type-check: the driver shells out to
// `go list -export -deps -json`, which compiles the transitive
// dependency set and reports each package's export-data file, then
// type-checks only the packages under analysis from source with an
// importer that reads those export files. This is the same division
// of labour as `go vet`'s driver and keeps a whole-tree run fast.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name for diagnostics, a doc
// string, and a Run function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is the interface between the driver and one analyzer run on one
// package. The analyzer reads the ASTs and type information and calls
// Report (or Reportf) for each finding.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diags = append(p.diags, d)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Result is the outcome of running a set of analyzers over a set of
// packages: every diagnostic, sorted by position.
type Result struct {
	Fset  *token.FileSet
	Diags []Diagnostic
}

// Run loads the packages matching patterns (go list syntax, e.g.
// "./...") rooted at dir and applies every analyzer to each. Analyzer
// errors (not diagnostics) abort the run.
func Run(dir string, patterns []string, analyzers []*Analyzer) (*Result, error) {
	pkgs, fset, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Fset: fset}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
			res.Diags = append(res.Diags, pass.diags...)
		}
	}
	sort.SliceStable(res.Diags, func(i, j int) bool {
		return res.Diags[i].Pos < res.Diags[j].Pos
	})
	return res, nil
}
