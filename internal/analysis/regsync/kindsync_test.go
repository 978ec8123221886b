// Message-kind synchronization: the dispatch tables in the source tree
// and the "Message kinds" table in docs/ARCHITECTURE.md must agree in
// both directions. A kind dispatched in code without a docs row
// silently drifts out of the protocol story; a docs row whose constant
// no table dispatches describes a message nothing handles. And every
// send must match its handler's half of the table: a Call whose kind has
// a one-way handler parks its caller for good, a Send whose kind has a
// Call handler leaves that handler's reply with nobody waiting.
package regsync

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// dispatchTables parses the non-test .go files of one package directory
// and returns the kinds of its dispatch tables. A dispatch table is an
// array literal of handler funcs keyed `kindX - kindFirst`
// (vkernel.HandleCalls, vkernel.HandleSends): calls holds the kinds of
// the tables whose handlers return a value (a vkernel.Outcome), sends
// those of the one-way tables. Purely syntactic: the compiler already
// rejects a duplicate key or one outside its table, and registration
// panics on an empty slot.
func dispatchTables(t *testing.T, dir string) (calls, sends map[string]bool) {
	t.Helper()
	calls, sends = map[string]bool{}, map[string]bool{}
	_, files := parsePackage(t, dir)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			arr, ok := lit.Type.(*ast.ArrayType)
			if !ok || arr.Len == nil {
				return true
			}
			fn, ok := arr.Elt.(*ast.FuncType)
			if !ok {
				return true
			}
			into := sends
			if fn.Results != nil && len(fn.Results.List) > 0 {
				into = calls
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.BinaryExpr); ok && key.Op == token.SUB {
					if id, ok := key.X.(*ast.Ident); ok && strings.HasPrefix(id.Name, "kind") {
						into[id.Name] = true
					}
				}
			}
			return false
		})
	}
	return calls, sends
}

// parsePackage parses the non-test .go files directly in dir.
func parsePackage(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// dispatchedKinds collects "pkg.kindName" for every kind of every
// dispatch table of the production packages under internal/.
func dispatchedKinds(t *testing.T) map[string]bool {
	t.Helper()
	root := filepath.Join(repoRoot(t), "internal")
	out := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		calls, sends := dispatchTables(t, path)
		for _, kinds := range []map[string]bool{calls, sends} {
			for name := range kinds {
				out[d.Name()+"."+name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no dispatch tables found under internal/")
	}
	return out
}

var kindTokenRe = regexp.MustCompile(`^[a-z][a-z0-9]*\.kind[A-Za-z0-9]+$`)

// architectureKinds extracts the `pkg.kindName` tokens from the first
// column of the ARCHITECTURE.md "Message kinds" table.
func architectureKinds(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "| Kind constant | Shape |"):
			inTable = true
			continue
		case !inTable:
			continue
		case !strings.HasPrefix(line, "|"):
			inTable = false
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 2 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		for _, m := range backtickRe.FindAllStringSubmatch(cells[1], -1) {
			if kindTokenRe.MatchString(m[1]) {
				names = append(names, m[1])
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no Message kinds table found in docs/ARCHITECTURE.md")
	}
	return names
}

// TestKindTableDispatched: every docs row must name a constant some
// dispatch table actually handles.
func TestKindTableDispatched(t *testing.T) {
	dispatched := dispatchedKinds(t)
	for _, name := range architectureKinds(t) {
		if !dispatched[name] {
			t.Errorf("ARCHITECTURE.md message table documents %q but no dispatch table handles it", name)
		}
	}
}

// TestDispatchedKindsDocumented: every dispatched kind must have a
// docs row.
func TestDispatchedKindsDocumented(t *testing.T) {
	documented := map[string]bool{}
	for _, name := range architectureKinds(t) {
		documented[name] = true
	}
	for name := range dispatchedKinds(t) {
		if !documented[name] {
			t.Errorf("kind %q is in a dispatch table but missing from the ARCHITECTURE.md message kinds table", name)
		}
	}
}

// Kernel methods that send a request, and the index of their kind
// argument. A Call-family send parks its caller on the reply, so its
// kind must be answered by a Call table; a one-way send expects none.
var (
	callSends = map[string]int{
		"Call": 1, "CallStart": 1, "CallStartOwned": 1, "CallInline": 1,
		"MulticastCall": 1, "MulticastCallStart": 1, "Forward": 2,
	}
	oneWaySends = map[string]int{"Send": 1, "SendOwned": 1, "Multicast": 1, "MulticastTo": 1}
)

// TestSendsMatchTheirTable holds every send in the packages that own
// dispatch tables to the half of the table its kind is in: each
// Call-family send names a kind of the package's Call tables, each
// one-way send a kind of its one-way tables, as a constant at the send
// site, so the check needs no data flow. A kind sent both ways fails
// for one of the two, since it sits in one half only.
func TestSendsMatchTheirTable(t *testing.T) {
	for _, pkg := range []string{"protocol", "dlock", "core"} {
		dir := filepath.Join(repoRoot(t), "internal", pkg)
		calls, sends := dispatchTables(t, dir)
		if len(calls) == 0 {
			t.Fatalf("internal/%s: no Call dispatch table found", pkg)
		}
		fset, files := parsePackage(t, dir)
		var bad []string
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				table, family, at := calls, "Call", -1
				if i, ok := callSends[sel.Sel.Name]; ok {
					at = i
				} else if i, ok := oneWaySends[sel.Sel.Name]; ok {
					table, family, at = sends, "one-way", i
				}
				if at < 0 || at >= len(call.Args) {
					return true
				}
				if id, ok := call.Args[at].(*ast.Ident); !ok || !table[id.Name] {
					bad = append(bad, fmt.Sprintf("%s: %s sends %s, which is not a kind constant of a %s dispatch table",
						fset.Position(call.Pos()), sel.Sel.Name, types.ExprString(call.Args[at]), family))
				}
				return true
			})
		}
		sort.Strings(bad)
		for _, b := range bad {
			t.Error(b)
		}
	}
}
