// Package regsync holds the registry synchronization tests: the
// counter registry in internal/stats must agree with the
// docs/ARCHITECTURE.md counters table in both directions (and, in
// kindsync_test.go, the dispatched message kinds with its kinds table).
// They are cheap pure-Go tests so they run under plain
// `go test ./...` — a rename that would orphan a docs row fails CI
// instead.
package regsync

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"munin/internal/stats"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

var backtickRe = regexp.MustCompile("`([^`]+)`")

// architectureCounters extracts the counter names documented in the
// ARCHITECTURE.md counters table: every backticked token in the first
// column of the table that follows the "| Counter | Layer | Meaning |"
// header. Parametrized tokens — `<class>` placeholders, call shapes
// like `Stats()`, and suffix fragments like `.bytes` — describe
// families, not exact names, and are skipped.
func architectureCounters(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "| Counter | Layer |"):
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
			tok := m[1]
			if strings.ContainsAny(tok, "<(") || strings.HasPrefix(tok, ".") {
				continue
			}
			names = append(names, tok)
		}
	}
	if len(names) == 0 {
		t.Fatal("no counters table found in docs/ARCHITECTURE.md")
	}
	return names
}

// TestArchitectureTableRegistered: every exact counter name the docs
// table documents must exist in the stats registry (typo'd docs rows
// would otherwise describe counters nothing increments).
func TestArchitectureTableRegistered(t *testing.T) {
	for _, name := range architectureCounters(t) {
		if !stats.IsRegistered(name) {
			t.Errorf("ARCHITECTURE.md documents counter %q but internal/stats/names.go does not register it", name)
		}
	}
}

// TestRegistryDocumented: every registered counter name must appear in
// the docs table (counters added in code without a docs row drift out
// of the paper-reproduction story).
func TestRegistryDocumented(t *testing.T) {
	documented := map[string]bool{}
	for _, name := range architectureCounters(t) {
		documented[name] = true
	}
	for _, name := range stats.Registered() {
		if !documented[name] {
			t.Errorf("counter %q is registered in internal/stats/names.go but missing from the ARCHITECTURE.md counters table", name)
		}
	}
}
