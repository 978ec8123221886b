package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

const specFile = "../BENCHMARK.json"

func sameSet(t *testing.T, what string, declared, emitted []string) {
	t.Helper()
	d, e := append([]string(nil), declared...), append([]string(nil), emitted...)
	sort.Strings(d)
	sort.Strings(e)
	if strings.Join(d, " ") != strings.Join(e, " ") {
		t.Errorf("%s: BENCHMARK.json declares %v, the benchmark emits %v", what, d, e)
	}
}

// TestSmoke runs every workload through both passes at a fraction of a
// second each and holds the benchmark to its declaration: the names in
// BENCHMARK.json and the names emitted agree in both directions, every
// workload verifies clean, hit sends nothing, the message counts do not
// depend on the seed, and a result compared with itself does not regress.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var declared, run []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		run = append(run, w.name)
	}
	sameSet(t, "workloads", declared, run)
	sameSet(t, "end_to_end", declNames(spec.EndToEnd), endToEndNames)
	sameSet(t, "per_layer", declNames(spec.PerLayer), perLayerNames())

	const budget = 200 * time.Millisecond
	untraced := pass{seed: 1, windows: 1, budget: budget}
	reseeded := pass{seed: 2, windows: 1, budget: budget / 2}
	traced := pass{seed: 1, windows: 1, budget: budget, traced: true}
	rf := resultFile{Meta: newMeta(1, budget.Seconds(), 1, false)}
	for _, w := range workloads {
		r, _ := untraced.run(w)
		rf.Workloads = append(rf.Workloads, r)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.name, r.Correct, r.Attempted, r.Failed, r.Notes)
		}
		if err := contractLine(&bytes.Buffer{}, r, endToEndNames); err != nil {
			t.Error(err)
		}
		msgs := r.Metrics["msgs_per_op"].Value
		if w.name == "hit" && msgs != 0 {
			t.Errorf("hit sent %v messages per op, want 0", msgs)
		}
		if w.name != "apps" {
			// The shape of the traffic must not depend on the seed.
			if r2, _ := reseeded.run(w); r2.Metrics["msgs_per_op"].Value != msgs {
				t.Errorf("%s: %v msgs/op with seed 1, %v with seed 2", w.name, msgs, r2.Metrics["msgs_per_op"].Value)
			}
		}

		rt, _ := traced.run(w)
		if !rt.Correct {
			t.Errorf("%s traced: failed=%d notes=%v", w.name, rt.Failed, rt.Notes)
		}
		var emitted []string
		for name := range rt.Metrics {
			// A traced pass carries the end-to-end figures of its untraced
			// windows along without declaring them per-layer.
			if !slices.Contains(endToEndNames, name) {
				emitted = append(emitted, name)
			}
		}
		sameSet(t, w.name+" per_layer", declNames(spec.PerLayer), emitted)
	}

	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeResultFile(path, rf); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	regressed, err := compareFiles(&table, specFile, path, path)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || strings.Contains(table.String(), "regressed") {
		t.Errorf("a result compared with itself regressed:\n%s", table.String())
	}
	if rows := strings.Count(table.String(), "\n"); rows < len(workloads)*len(endToEndNames) {
		t.Errorf("compare printed %d lines, want a row per workload and metric:\n%s", rows, table.String())
	}
}
