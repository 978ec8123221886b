// Lock-rank synchronization: the race build checks lock ranks only on
// ranked mutexes and rejects a rendezvous under a data mutex only where
// the rendezvous says so, so two things must hold in the source. Every
// mutex field of the module's types is a lockrank.Mutex, and every
// rendezvous in the blocking list (discard_test.go) starts with
// lockrank.Blocking().
package regsync

import (
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"testing"
)

// sourceDirs returns the root package's directory and every package
// directory under internal/, testdata excluded.
func sourceDirs(t *testing.T) []string {
	t.Helper()
	root := repoRoot(t)
	dirs := []string{root}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestEveryLockHasARank: no package-level struct type outside lockrank
// has a sync.Mutex or sync.RWMutex field, at any depth of nested struct
// types. Such a lock would escape every rank check.
func TestEveryLockHasARank(t *testing.T) {
	for _, dir := range sourceDirs(t) {
		if filepath.Base(dir) == "lockrank" {
			continue
		}
		fset, files := parsePackage(t, dir)
		for _, file := range files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						f, ok := n.(*ast.Field)
						if !ok {
							return true
						}
						if sel, ok := f.Type.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
								t.Errorf("%s: type %s has a sync.%s field: give it a rank (lockrank.Mutex)", fset.Position(f.Pos()), ts.Name.Name, sel.Sel.Name)
							}
						}
						return true
					})
				}
			}
		}
	}
}

// TestBlockingCallsCheckRanks: every module function in the blocking list
// starts with lockrank.Blocking(). An interface entry stands for every
// method of the module with the interface method's name and signature.
func TestBlockingCallsCheckRanks(t *testing.T) {
	type method struct {
		recv string
		decl *ast.FuncDecl
		pos  string
	}
	// methods["pkg.Name"] lists the package's methods of that name;
	// ifaces["pkg.Recv.Name"] the signature of an interface's method.
	methods := map[string][]method{}
	ifaces := map[string]string{}
	var all []method
	root := repoRoot(t)
	for _, dir := range sourceDirs(t) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Join("munin", rel))
		fset, files := parsePackage(t, dir)
		for _, file := range files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						continue
					}
					m := method{recv: recvName(d.Recv.List[0].Type), decl: d, pos: fset.Position(d.Pos()).String()}
					methods[pkg+"."+d.Name.Name] = append(methods[pkg+"."+d.Name.Name], m)
					all = append(all, m)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, f := range it.Methods.List {
							for _, name := range f.Names {
								ifaces[pkg+"."+ts.Name.Name+"."+name.Name] = types.ExprString(f.Type)
							}
						}
					}
				}
			}
		}
	}

	for _, b := range blocking {
		var impls []method
		if sig, ok := ifaces[b.Pkg+"."+b.Recv+"."+b.Name]; ok {
			for _, m := range all {
				if m.decl.Name.Name == b.Name && types.ExprString(m.decl.Type) == sig {
					impls = append(impls, m)
				}
			}
		} else {
			for _, m := range methods[b.Pkg+"."+b.Name] {
				if m.recv == b.Recv {
					impls = append(impls, m)
				}
			}
		}
		if len(impls) == 0 {
			t.Errorf("the blocking list names %s.%s.%s, which the source does not declare", b.Pkg, b.Recv, b.Name)
		}
		for _, m := range impls {
			if !startsWithBlocking(m.decl) {
				t.Errorf("%s: (%s).%s is a blocking rendezvous (the blocking list) but does not start with lockrank.Blocking()", m.pos, m.recv, b.Name)
			}
		}
	}
}

// recvName is the type name of a method receiver, pointer or not.
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// startsWithBlocking reports whether fn's first statement is the call
// lockrank.Blocking().
func startsWithBlocking(fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) == 0 {
		return false
	}
	st, ok := fn.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := st.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	return types.ExprString(call.Fun) == "lockrank.Blocking"
}
