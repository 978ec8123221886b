package munin

import (
	"testing"

	"munin/internal/apps"
	"munin/internal/bench"
)

// One benchmark per experiment F1–E9 of the index in README.md
// ("Experiments:"), timing a whole run of it; the experiment tables
// themselves are printed by cmd/munin-bench.

func benchResult(b *testing.B, run func(nodes int) *bench.Result, nodes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(nodes)
	}
}

func BenchmarkF1StrictVsLoose(b *testing.B)       { benchResult(b, bench.F1, 2) }
func BenchmarkT1SharingStudy(b *testing.B)        { benchResult(b, bench.T1, 4) }
func BenchmarkE1Traffic(b *testing.B)             { benchResult(b, bench.E1, 4) }
func BenchmarkE2MatmulResult(b *testing.B)        { benchResult(b, bench.E2, 4) }
func BenchmarkE3ReplicationVsRemote(b *testing.B) { benchResult(b, bench.E3, 4) }
func BenchmarkE4InvalidateVsRefresh(b *testing.B) { benchResult(b, bench.E4, 4) }
func BenchmarkE5Migratory(b *testing.B)           { benchResult(b, bench.E5, 3) }
func BenchmarkE6ProducerConsumer(b *testing.B)    { benchResult(b, bench.E6, 3) }
func BenchmarkE7DUQCombining(b *testing.B)        { benchResult(b, bench.E7, 2) }
func BenchmarkE8LockProxies(b *testing.B)         { benchResult(b, bench.E8, 2) }
func BenchmarkE9FalseSharing(b *testing.B)        { benchResult(b, bench.E9, 4) }

// Per-application benchmarks over both systems: the raw material of
// the E1 table, reported as msgs/op for direct comparison.

func benchApp(b *testing.B, run func(sys DSM) any) {
	b.Run("munin", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			sys, err := New(Config{Nodes: 4})
			if err != nil {
				b.Fatal(err)
			}
			run(sys)
			msgs = sys.Messages()
			sys.Close()
		}
		b.ReportMetric(float64(msgs), "msgs/op")
	})
	b.Run("ivy", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			sys, err := NewIvy(IvyConfig{Nodes: 4})
			if err != nil {
				b.Fatal(err)
			}
			run(sys)
			msgs = sys.Messages()
			sys.Close()
		}
		b.ReportMetric(float64(msgs), "msgs/op")
	})
}

func BenchmarkAppMatMul(b *testing.B) {
	benchApp(b, func(sys DSM) any { return apps.MatMul{N: 32, Threads: 4, Seed: 1}.Run(sys) })
}

func BenchmarkAppGauss(b *testing.B) {
	benchApp(b, func(sys DSM) any { return apps.Gauss{N: 24, Threads: 4, Seed: 2}.Run(sys) })
}

func BenchmarkAppFFT(b *testing.B) {
	benchApp(b, func(sys DSM) any { return apps.FFT{N: 128, Threads: 4, Seed: 3}.Run(sys) })
}

func BenchmarkAppQSort(b *testing.B) {
	benchApp(b, func(sys DSM) any { return apps.QSort{N: 512, Threads: 4, Seed: 4}.Run(sys) })
}

func BenchmarkAppTSP(b *testing.B) {
	benchApp(b, func(sys DSM) any { return apps.TSP{Cities: 8, Threads: 4, Seed: 5}.Run(sys) })
}

func BenchmarkAppLife(b *testing.B) {
	benchApp(b, func(sys DSM) any {
		return apps.Life{Rows: 32, Cols: 24, Generations: 6, Threads: 4, Seed: 6}.Run(sys)
	})
}
