package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The end-to-end metrics BENCHMARK.json declares, in the order they are
// printed. Their units, directions and regression bounds live there; the
// smoke test fails when the two lists drift apart.
var endToEndNames = []string{"setup_s", "ops_per_s", "op_p50_us"}

// sideDecls are end-to-end figures too — both passes report them and
// -compare holds them to the bounds given here — but BENCHMARK.json has
// to list them under per_layer. Its end-to-end metrics are compared as a
// share of the parent's median, so they may never read 0, and the exact
// counts do: msgs_per_op and bytes_per_op on hit, failed_share everywhere
// (2 % on traffic, no increase at all in failures). And they must repeat
// from run to run within their bound, which the tail does not on a shared
// 2-core VM: one stolen time slice is 1 % of a window's ops.
var sideDecls = []metricDecl{
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "msgs_per_op", Unit: "1", Better: "lower", Bound: 0.02},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "failed_share", Unit: "1", Better: "lower", Bound: 0},
}

func declNames(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	return names
}

// metric is one reported value: the median over the windows of a pass.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median over the windows; compare prints
	// "unresolved" when it exceeds the metric's bound.
	Spread  float64   `json:"spread,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// workloadResult is everything one workload reported in one pass.
type workloadResult struct {
	Name      string            `json:"name"`
	Procs     int               `json:"gomaxprocs"` // while this workload ran
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta records what produced a result file.
type runMeta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Started    string  `json:"started"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta      runMeta          `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

func newMeta(seed int64, seconds float64, windows int, traced bool) runMeta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runMeta{
		Seed: seed, Seconds: seconds, Windows: windows, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// metricDecl is one metric entry of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// contractLine is the last line of standard output in single-workload
// mode: the end-to-end metrics of an untraced pass, or the per-layer
// metrics of a traced one.
func contractLine(w io.Writer, r workloadResult, names []string) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", r.Name, n)
		}
		out.Metrics[n] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printResult writes one workload's metrics as a table, one row per
// metric in the given order.
func printResult(w io.Writer, r workloadResult, names []string) {
	fmt.Fprintf(w, "\n%s: attempted=%d failed=%d correct=%v\n", r.Name, r.Attempted, r.Failed, r.Correct)
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", n, m.Value, m.Unit)
		if len(m.Windows) > 1 {
			fmt.Fprintf(w, "  spread %5.1f%% of %d windows", 100*m.Spread, len(m.Windows))
		}
		fmt.Fprintln(w)
	}
}

// summarize folds per-window values into a reported metric.
func summarize(unit string, windows []float64) metric {
	m := metric{Unit: unit, Value: median(windows), Windows: windows}
	if len(windows) > 1 && m.Value != 0 {
		lo, hi := windows[0], windows[0]
		for _, v := range windows {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		m.Spread = (hi - lo) / math.Abs(m.Value)
	}
	return m
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
