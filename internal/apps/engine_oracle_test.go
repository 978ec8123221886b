package apps

import (
	"testing"

	"munin/internal/core"
)

// TestStudyAppsLeaseOracle is the oracle over the study applications:
// every app must produce its sequential answer on a three-node system.
// None of them allocates read-mostly data, so no app reaches the lease
// engine; the engine's own oracles are in internal/core.
func TestStudyAppsLeaseOracle(t *testing.T) {
	newSys := func() *core.System {
		s, err := core.New(core.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	type check struct {
		name string
		run  func(s *core.System) (got, want float64, exact bool)
	}
	checks := []check{
		{"matmul", func(s *core.System) (float64, float64, bool) {
			m := MatMul{N: 12, Threads: 3, Seed: 1}
			return m.Run(s), m.Sequential(), false
		}},
		{"gauss", func(s *core.System) (float64, float64, bool) {
			g := Gauss{N: 14, Threads: 3, Seed: 2}
			return g.Run(s), g.Sequential(), false
		}},
		{"fft", func(s *core.System) (float64, float64, bool) {
			f := FFT{N: 64, Threads: 3, Seed: 3}
			return f.Run(s), f.Sequential(), false
		}},
		{"qsort", func(s *core.System) (float64, float64, bool) {
			q := QSort{N: 120, Threads: 3, Seed: 4, Threshold: 16}
			return float64(q.Run(s)), float64(q.Sequential()), true
		}},
		{"tsp", func(s *core.System) (float64, float64, bool) {
			p := TSP{Cities: 7, Threads: 3, Seed: 5}
			return float64(p.Run(s)), float64(p.Sequential()), true
		}},
		{"life", func(s *core.System) (float64, float64, bool) {
			l := Life{Rows: 10, Cols: 8, Generations: 3, Threads: 3, Seed: 6}
			return float64(l.Run(s)), float64(l.Sequential()), true
		}},
	}

	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			s := newSys()
			got, want, exact := c.run(s)
			s.Close()
			ok := got == want
			if !exact {
				ok = almostEq(got, want)
			}
			if !ok {
				t.Fatalf("%v, want %v", got, want)
			}
		})
	}
}
