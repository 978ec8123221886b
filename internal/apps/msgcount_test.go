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
// release. Each thread is alone on its node, so each is a carrier:
// every update it must apply after a barrier rides its release, even
// when it carried nothing. The per-program figures:
//
//   - matmul 8: the result matrix's diffs go to its collector.
//   - gauss 96: 2 for node 0's first read fault, then 2 a step (node
//     0's arrival, carrying its row updates, and its release) for the
//     47 steps; in the last, node 0 writes nothing and its release
//     brings node 1's updates.
//   - fft 20.
//   - life 28: the boundary rows' producer and consumer registrations,
//     then 2 a generation. Every row push rides its producer's arrival
//     and is applied at the barrier's home or in the other node's
//     release, so neither the pushes nor their acks are messages.
//
// The benchmark's apps workload reports their mean, 38.0 an op.
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
		{"gauss", func(s api.System) bool { return almostEq(ga.Run(s), ga.Sequential()) }, 96},
		{"fft", func(s api.System) bool { return almostEq(ff.Run(s), ff.Sequential()) }, 20},
		{"life", func(s api.System) bool { return li.Run(s) == li.Sequential() }, 28},
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
