package apps

import (
	"testing"

	"munin/internal/api"
	"munin/internal/core"
)

// TestStudyAppsMessageCounts pins the messages each of the four study
// programs whose traffic does not depend on the schedule sends on a
// fresh two-node system over tcp, in the shapes the apps benchmark
// workload runs them. Both programs' barriers and gauss's matrix are
// homed on a node that runs a participant: that participant's arrival
// sends no message, and its updates ride the other participant's
// release. The per-program figures:
//
//   - matmul 8: the result matrix's diffs go to its collector.
//   - gauss 98: 2 a step (node 0's carried arrival and its release) for
//     46 of the 47 steps, and 6 for the last, where node 0 writes
//     nothing and gets node 1's updates in an acknowledged relay.
//   - fft 20, life 60 (16 of them life's acknowledged row pushes).
//
// The benchmark's apps workload reports their mean, 46.5 an op.
func TestStudyAppsMessageCounts(t *testing.T) {
	const seed = 1
	mm := MatMul{N: 48, Threads: 2, Seed: seed}
	ga := Gauss{N: 48, Threads: 2, Seed: seed}
	ff := FFT{N: 512, Threads: 2, Seed: seed}
	li := Life{Rows: 48, Cols: 48, Generations: 8, Threads: 2, Seed: seed}
	cases := []struct {
		name string
		run  func(api.System) bool
		want int64
	}{
		{"matmul", func(s api.System) bool { return almostEq(mm.Run(s), mm.Sequential()) }, 8},
		{"gauss", func(s api.System) bool { return almostEq(ga.Run(s), ga.Sequential()) }, 98},
		{"fft", func(s api.System) bool { return almostEq(ff.Run(s), ff.Sequential()) }, 20},
		{"life", func(s api.System) bool { return li.Run(s) == li.Sequential() }, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := core.New(core.Config{Nodes: 2, Transport: "tcp"})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !tc.run(s) {
				t.Fatal("the result differs from the sequential answer")
			}
			if got := s.Messages(); got != tc.want {
				t.Errorf("%s sent %d messages, want exactly %d", tc.name, got, tc.want)
			}
		})
	}
}
