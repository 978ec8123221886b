// Command muninvet runs the repo's static-analysis suite: six
// analyzers that enforce invariants the type system cannot —
//
//	pooledbuf    bufpool single-owner discipline
//	lockhold     no blocking calls under data mutexes; sorted fence order
//	counterreg   counter names come from the internal/stats registry
//	failpointref failpoint names resolve against failpoint.Names()
//	lockorder    whole-program lock acquisition-order graph is acyclic
//	errflow      sentinel errors matched with errors.Is/As; rendezvous errors not discarded
//
// Usage:
//
//	go run ./cmd/muninvet ./...
//	go run ./cmd/muninvet -json ./...           # machine-readable findings
//	go run ./cmd/muninvet -artifacts out ./...  # write lockorder.dot etc. to out/
//
// Exits 1 if any analyzer reports a diagnostic, 2 on driver errors.
// CI runs it as a blocking step next to go vet and uploads the
// lock-order DOT graph as a build artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"munin/internal/analysis/counterreg"
	"munin/internal/analysis/errflow"
	"munin/internal/analysis/failpointref"
	"munin/internal/analysis/framework"
	"munin/internal/analysis/lockhold"
	"munin/internal/analysis/lockorder"
	"munin/internal/analysis/pooledbuf"
)

var analyzers = []*framework.Analyzer{
	pooledbuf.Analyzer,
	lockhold.Analyzer,
	counterreg.Analyzer,
	failpointref.Analyzer,
	lockorder.Analyzer,
	errflow.Analyzer,
}

// jsonDiag is the -json wire shape for one finding, mirroring the
// x/tools -json vet output closely enough for editor integrations.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	artifactsDir := flag.String("artifacts", "", "directory to write analyzer artifacts (e.g. lockorder.dot)")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "muninvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "muninvet: %v\n", err)
		os.Exit(2)
	}
	res, err := framework.Run(wd, patterns, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "muninvet: %v\n", err)
		os.Exit(2)
	}

	if *artifactsDir != "" {
		if err := os.MkdirAll(*artifactsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "muninvet: %v\n", err)
			os.Exit(2)
		}
		for name, data := range res.Artifacts {
			if err := os.WriteFile(filepath.Join(*artifactsDir, name), data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "muninvet: %v\n", err)
				os.Exit(2)
			}
		}
	}

	if *jsonOut {
		out := make([]jsonDiag, 0, len(res.Diags))
		for _, d := range res.Diags {
			p := res.Position(d)
			out = append(out, jsonDiag{
				File: p.Filename, Line: p.Line, Column: p.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "muninvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Printf("%s: %s: %s\n", res.Position(d), d.Analyzer, d.Message)
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "muninvet: %d finding(s)\n", len(res.Diags))
		os.Exit(1)
	}
}
