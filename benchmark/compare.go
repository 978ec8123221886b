package main

import (
	"fmt"
	"io"
	"math"
)

// setupSlack is the absolute change in setup_s that never counts as a
// regression: set-up takes milliseconds, and 25 % of little is noise.
const setupSlack = 0.005

// compareFiles prints one row per (workload, metric) of result file b
// against result file a, judged by the bounds in the spec, and reports
// whether any row regressed.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResultFile(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return false, err
	}
	after := map[string]workloadResult{}
	for _, r := range b.Workloads {
		after[r.Name] = r
	}
	fmt.Fprintf(w, "a: %s  seed %d  commit %s\nb: %s  seed %d  commit %s\n\n",
		aPath, a.Meta.Seed, a.Meta.Commit, bPath, b.Meta.Seed, b.Meta.Commit)
	fmt.Fprintf(w, "%-6s %-13s %14s %14s %8s %7s %9s  %s\n",
		"", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := after[ra.Name]
		if !ok {
			continue
		}
		for _, d := range append(append([]metricDecl(nil), spec.EndToEnd...), sideDecls...) {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(d, ma, mb)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-6s %-13s %14.4f %14.4f %+7.1f%% %6.1f%% %8.1f%%  %s\n",
				ra.Name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound,
				100*math.Max(ma.Spread, mb.Spread), verdict)
		}
	}
	return regressed, nil
}

// judge says how much worse b is than a as a share of a, and what that
// amounts to under the metric's bound. A change within the bound is
// "unresolved", not "unchanged", when the windows of either side spread
// wider than the bound — unless every window of b beats every window of a.
func judge(d metricDecl, a, b metric) (worse float64, verdict string) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	delta := sign * (b.Value - a.Value)
	worse = delta
	if a.Value != 0 {
		worse = delta / math.Abs(a.Value)
	}
	allowed := d.Bound * math.Abs(a.Value)
	if d.Name == "setup_s" {
		allowed = math.Max(allowed, setupSlack)
	}
	switch {
	case delta > allowed:
		return worse, "regressed"
	case math.Max(a.Spread, b.Spread) <= d.Bound:
		if delta < -allowed {
			return worse, "improved"
		}
		return worse, "unchanged"
	case len(a.Windows) > 0 && len(b.Windows) > 0 && sign*(extreme(b.Windows, sign)-extreme(a.Windows, -sign)) < 0:
		return worse, "improved"
	}
	return worse, "unresolved"
}

// extreme returns the largest value of v for sign > 0, the smallest for
// sign < 0.
func extreme(v []float64, sign float64) float64 {
	out := v[0]
	for _, x := range v {
		if sign*(x-out) > 0 {
			out = x
		}
	}
	return out
}
