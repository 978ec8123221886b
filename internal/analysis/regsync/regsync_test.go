// Package regsync holds the registry synchronization tests: the
// counters the internal/stats structs declare must agree with the
// docs/ARCHITECTURE.md counters table in both directions, layer
// included (and, in kindsync_test.go, the dispatched message kinds with
// its kinds table). They run under plain `go test ./...`, so a rename
// that would orphan a docs row fails Tier-1.
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

// architectureCounters extracts the counters documented in the
// ARCHITECTURE.md counters table, each with the first word of its row's
// Layer column: every backticked token in the first column of the table
// that follows the "| Counter | Layer | Meaning |" header. A `<class>`
// placeholder stands for each traffic class; call shapes like
// `Messages()` name accessors, not counters, and are skipped.
func architectureCounters(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
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
		if len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		layer := strings.Fields(cells[2])[0]
		for _, m := range backtickRe.FindAllStringSubmatch(cells[1], -1) {
			tok := m[1]
			switch {
			case strings.Contains(tok, "("):
			case strings.Contains(tok, "<class>"):
				for _, class := range stats.TrafficClasses {
					names[strings.Replace(tok, "<class>", class, 1)] = layer
				}
			default:
				names[tok] = layer
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no counters table found in docs/ARCHITECTURE.md")
	}
	return names
}

// TestArchitectureTableRegistered: every counter the docs table
// documents is declared by the counter struct of the layer its row
// names (typo'd docs rows would otherwise describe counters nothing
// increments).
func TestArchitectureTableRegistered(t *testing.T) {
	for name, layer := range architectureCounters(t) {
		switch got := stats.LayerOf(name); got {
		case layer:
		case "":
			t.Errorf("ARCHITECTURE.md documents counter %q but no internal/stats counter struct declares it", name)
		default:
			t.Errorf("ARCHITECTURE.md puts counter %q in layer %s, but the %s struct declares it", name, layer, got)
		}
	}
}

// TestRegistryDocumented: every declared counter must appear in the
// docs table (counters added in code without a docs row drift out of
// the paper-reproduction story).
func TestRegistryDocumented(t *testing.T) {
	documented := architectureCounters(t)
	for _, name := range stats.Registered() {
		if _, ok := documented[name]; !ok {
			t.Errorf("counter %q is declared in internal/stats but missing from the ARCHITECTURE.md counters table", name)
		}
	}
}
