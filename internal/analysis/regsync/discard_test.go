// Discarded rendezvous errors: the calls below park their caller on a
// remote round trip or rendezvous, and they are exactly the calls that
// fail when a member crashes or departs mid-round. A caller that drops
// such a call's error turns a detectable membership failure into a
// silent hang or a stale read, so no production package may call one
// as a bare statement, or send its error to the blank identifier.
package regsync

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// blocking lists the callees that park the caller on a remote round
// trip or rendezvous. Each starts with lockrank.Blocking(), so the race
// build rejects entering one with a data mutex held
// (TestBlockingCallsCheckRanks). The Endpoint entry is an interface
// method: every implementation starts that way.
var blocking = []struct{ Pkg, Recv, Name string }{
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

// isBlocking reports whether fn is in the blocking list and returns an
// error last.
func isBlocking(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if res := sig.Results(); res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	recv := ""
	if r := sig.Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	for _, b := range blocking {
		if fn.Pkg().Path() == b.Pkg && recv == b.Recv && fn.Name() == b.Name {
			return true
		}
	}
	return false
}

// discards returns a finding for each call to a blocking function that
// is a bare statement, or whose error result is assigned to _.
func discards(fset *token.FileSet, files []*ast.File, info *types.Info) []string {
	callee := func(e ast.Expr) *types.Func {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		var id *ast.Ident
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		}
		fn, _ := info.Uses[id].(*types.Func)
		if !isBlocking(fn) {
			return nil
		}
		return fn
	}
	var out []string
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if fn := callee(s.X); fn != nil {
					out = append(out, fmt.Sprintf("%s: the error of %s is discarded", fset.Position(s.Pos()), fn.FullName()))
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					break
				}
				if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					if fn := callee(s.Rhs[0]); fn != nil {
						out = append(out, fmt.Sprintf("%s: the error of %s is assigned to _", fset.Position(s.Pos()), fn.FullName()))
					}
				}
			}
			return true
		})
	}
	return out
}

// listPackage is the part of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// loader type-checks the module's packages from source, against the
// export data `go list -export` compiled for their imports.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
	own  []*listPackage // the module's packages
}

func newLoader(t *testing.T) *loader {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = repoRoot(t)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	l := &loader{fset: token.NewFileSet()}
	all := map[string]*listPackage{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listPackage)
		if err := dec.Decode(lp); err != nil {
			t.Fatal(err)
		}
		all[lp.ImportPath] = lp
		if !lp.Standard {
			l.own = append(l.own, lp)
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if lp := all[path]; lp != nil && lp.Export != "" {
			return os.Open(lp.Export)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	return l
}

// check type-checks files as package path and returns its uses.
func (l *loader) check(t *testing.T, path string, files []*ast.File) *types.Info {
	t.Helper()
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l.imp}
	if _, err := conf.Check(path, l.fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return info
}

func (l *loader) parse(t *testing.T, name string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(l.fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNoDiscardedRendezvousErrors: no production package drops the
// error of a blocking call.
func TestNoDiscardedRendezvousErrors(t *testing.T) {
	l := newLoader(t)
	for _, lp := range l.own {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			files = append(files, l.parse(t, filepath.Join(lp.Dir, name), nil))
		}
		for _, d := range discards(l.fset, files, l.check(t, lp.ImportPath, files)) {
			t.Error(d + ": a member crash surfaces here; assign and handle it")
		}
	}
}

// TestDiscardCheckFindsBothForms: the check flags a bare call and an
// error sent to _, and nothing else.
func TestDiscardCheckFindsBothForms(t *testing.T) {
	l := newLoader(t)
	f := l.parse(t, "fixture.go", `package fixture

import "munin/internal/vkernel"

func bare(k *vkernel.Kernel, p []byte) { k.Call(1, 0x0601, p) }

func blank(k *vkernel.Kernel, p []byte) { _, _ = k.Call(1, 0x0601, p) }

func replyOnly(k *vkernel.Kernel, p []byte) { r, _ := k.Call(1, 0x0601, p); _ = r }

func handled(k *vkernel.Kernel, p []byte) error { _, err := k.Call(1, 0x0601, p); return err }

func notBlocking(k *vkernel.Kernel) { k.Close() }
`)
	got := discards(l.fset, []*ast.File{f}, l.check(t, "fixture", []*ast.File{f}))
	want := []string{"fixture.go:5:42: the error of (*munin/internal/vkernel.Kernel).Call is discarded",
		"fixture.go:7:43: the error of (*munin/internal/vkernel.Kernel).Call is assigned to _",
		"fixture.go:9:47: the error of (*munin/internal/vkernel.Kernel).Call is assigned to _"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
