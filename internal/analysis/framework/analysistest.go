package framework

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// RunFixture applies one analyzer to the fixture package in
// testdata/src/<pkg> under the analyzer's directory and compares the
// diagnostics against `// want` comments, x/tools analysistest style:
//
//	bad() // want `regexp matching the diagnostic`
//
// A line with a want comment must produce a diagnostic on that line
// matching the regexp; a diagnostic on a line without one fails the
// test. Multiple want clauses on one line each need a match.
func RunFixture(t *testing.T, a *Analyzer, fixtureDir string) {
	t.Helper()
	moduleDir := moduleRoot(t, fixtureDir)
	pkg, fset, err := LoadDir(fixtureDir, moduleDir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixtureDir, err)
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	wants := collectWants(t, fixtureDir)
	got := map[posKey][]string{}
	for _, d := range pass.diags {
		p := fset.Position(d.Pos)
		k := posKey{filepath.Base(p.Filename), p.Line}
		got[k] = append(got[k], d.Message)
	}

	for k, patterns := range wants {
		msgs := got[k]
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, pat, err)
			}
			idx := -1
			for i, m := range msgs {
				if re.MatchString(m) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %q)", k.file, k.line, pat, msgs)
				continue
			}
			msgs = append(msgs[:idx], msgs[idx+1:]...)
		}
		if len(msgs) > 0 {
			t.Errorf("%s:%d: unexpected extra diagnostics %q", k.file, k.line, msgs)
		}
		delete(got, k)
	}
	var stray []string
	for k, msgs := range got {
		for _, m := range msgs {
			stray = append(stray, fmt.Sprintf("%s:%d: %s", k.file, k.line, m))
		}
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("unexpected diagnostic: %s", s)
	}
}

type posKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("// want (.*)$")
var clauseRe = regexp.MustCompile("`([^`]*)`")

// collectWants scans the fixture files for want comments, returning
// line -> expected-diagnostic regexps.
func collectWants(t *testing.T, dir string) map[posKey][]string {
	t.Helper()
	out := map[posKey][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			clauses := clauseRe.FindAllStringSubmatch(m[1], -1)
			if len(clauses) == 0 {
				t.Fatalf("%s:%d: want comment with no `backquoted` clause", e.Name(), i+1)
			}
			k := posKey{e.Name(), i + 1}
			for _, c := range clauses {
				out[k] = append(out[k], c[1])
			}
		}
	}
	return out
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(t *testing.T, dir string) string {
	t.Helper()
	d, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// Position renders a diagnostic position for the multichecker output.
func (r *Result) Position(d Diagnostic) token.Position { return r.Fset.Position(d.Pos) }
