package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAnnotationReadOnlyByRowConstructor keeps the annotation choice in
// one place: outside the row constructor, the annotation's name and the
// alloc codec, no non-test file of this package may read a .Annot field.
// Everything else branches on the object's policy row.
func TestAnnotationReadOnlyByRowConstructor(t *testing.T) {
	allowed := map[string]bool{
		"policyOf":          true,
		"Annotation.String": true,
		"encodeAlloc":       true,
		"decodeAlloc":       true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			where := "package-level declaration"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				where = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Annot" && !allowed[where] {
					bad = append(bad, fset.Position(sel.Pos()).String()+" in "+where)
				}
				return true
			})
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s reads .Annot; branch on the object's policy row (o.pol) instead", b)
	}
}

// funcName names a function declaration as "Recv.Name" for methods and
// "Name" otherwise.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
