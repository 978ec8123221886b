// Command benchmark is the repository's load generator: five closed-loop
// workloads over an in-process Munin cluster on loopback TCP, measured
// end to end by an untraced pass and attributed layer by layer by a
// traced one. BENCHMARK.json at the root of the repository declares it;
// README.md in this directory says what every number means.
//
//	go run ./benchmark                                   every workload, untraced pass
//	go run ./benchmark -trace 1                          every workload, traced pass
//	go run ./benchmark -workload sync -seed 7 -seconds 25 -trace 0
//	go run ./benchmark -out a.json; go run ./benchmark -out b.json
//	go run ./benchmark -compare a.json b.json
//
// With -workload naming one workload, the last line of standard output
// is one JSON object: correct, attempted, failed and the metrics of the
// pass. The process exits non-zero when an op failed, a thread panicked
// or a window hung.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: hit, sync, flush, fault, apps or all")
		seed     = flag.Int64("seed", 1, "seed of every generated index, offset and app input")
		seconds  = flag.Float64("seconds", 25, "warm-up plus measuring time of one workload's pass")
		nwindows = flag.Int("windows", 5, "windows per workload; the reported value is their median")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out      = flag.String("out", "", "write the full result, every window included, to this JSON file")
		spans    = flag.String("spans", "", "traced pass: write the driver spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		specPath = flag.String("spec", "BENCHMARK.json", "metric declarations and bounds, for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || *nwindows < 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	p := pass{
		seed: *seed, windows: *nwindows, traced: *trace != 0,
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	rf := resultFile{Meta: newMeta(*seed, *seconds, *nwindows, p.traced)}
	// declared is what BENCHMARK.json promises of this pass; the untraced
	// pass prints the tail, traffic and failure figures beside it.
	declared := endToEndNames
	printed := append(append([]string(nil), endToEndNames...), declNames(sideDecls)...)
	if p.traced {
		declared = perLayerNames()
		printed = declared
	}
	healthy := true
	traces := map[string][]*tracer{}
	for _, w := range selected {
		r, t := p.run(w)
		if *spans != "" {
			traces[w.name] = t
		}
		rf.Workloads = append(rf.Workloads, r)
		printResult(os.Stderr, r, printed)
		if p.traced {
			printAttribution(os.Stderr, w.name, r)
		}
		healthy = healthy && r.Correct
	}
	if *spans != "" && p.traced {
		if err := writeSpans(*spans, traces); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			fatal(err)
		}
	}
	if len(selected) == 1 {
		if err := contractLine(os.Stdout, rf.Workloads[0], declared); err != nil {
			fatal(err)
		}
	}
	if !healthy {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
