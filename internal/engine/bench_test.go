package engine

import (
	"runtime"
	"testing"

	"repro/internal/coverage"
)

// benchScenario is trial-heavy enough that sharding matters: the wall-clock
// ratio between these two benchmarks is the engine's parallel speedup.
func benchScenario() Scenario {
	sc := busyPreset()
	sc.Name = "bench-busy"
	sc.Population = 10
	sc.Trials = 32
	return sc
}

func runBench(b *testing.B, workers int) {
	b.Helper()
	sc := benchScenario()
	// Warm the build cache so the loop measures the batched trial path,
	// not schedule analysis.
	if _, err := RunScenario(sc, Options{Trials: 1, Workers: workers}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(sc, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	reportTrials(b, sc.Trials)
}

// reportTrials derives trials/sec from the measured loop so the batched
// execution path's throughput is visible directly in `go test -bench`
// output, matching the ndbench trajectory metric.
func reportTrials(b *testing.B, trials int) {
	b.Helper()
	elapsed := b.Elapsed().Seconds()
	if trials > 0 && elapsed > 0 {
		b.ReportMetric(float64(trials)*float64(b.N)/elapsed, "trials/s")
	}
}

func BenchmarkRunScenario1Worker(b *testing.B) { runBench(b, 1) }

func BenchmarkRunScenarioAllCores(b *testing.B) { runBench(b, runtime.GOMAXPROCS(0)) }

// benchKind runs a scenario-shaped benchmark for one protocol kind: the
// per-trial primitive plus the engine's sharding and aggregation overhead.
func benchKind(b *testing.B, sc Scenario, trials int) {
	b.Helper()
	sc.Trials = trials
	// Warm the build cache so the loop measures trials, not analysis.
	if _, err := RunScenario(sc, Options{Trials: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(sc, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportTrials(b, sc.Trials)
}

// BenchmarkExactPoint measures the exact-analysis fast path: the same
// quickstart point BenchmarkExactPointMC simulates, answered straight
// from the cached schedule analysis with zero trials. Their ns/op ratio
// is the exact-mode speedup ISSUE 9 gates on (≥ 100×).
func BenchmarkExactPoint(b *testing.B) {
	sc, err := Preset("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	sc.Exact = true
	benchKind(b, sc, 0)
}

// BenchmarkExactPointMC is the Monte-Carlo twin of BenchmarkExactPoint:
// identical scenario, 500 simulated trials.
func BenchmarkExactPointMC(b *testing.B) {
	sc, err := Preset("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	benchKind(b, sc, 500)
}

// BenchmarkMultiChannelPairScenario measures the multi-channel pair path
// (sim.MultiChannelPairTrialScratch on the world kernel).
func BenchmarkMultiChannelPairScenario(b *testing.B) {
	sc, err := Preset("ble3-fast")
	if err != nil {
		b.Fatal(err)
	}
	benchKind(b, sc, 64)
}

// BenchmarkSlotGridPairScenario measures the slot-aligned pair path
// (sim.SlotGridPair.TrialScratch on the world kernel).
func BenchmarkSlotGridPairScenario(b *testing.B) {
	suite, err := Suite("slotgrid")
	if err != nil {
		b.Fatal(err)
	}
	benchKind(b, suite[0], 64)
}

// BenchmarkMultiChannelGroupScenario measures the kernel's multi-node
// multi-channel group path with per-channel collisions and half-duplex
// radios (sim.MultiChannelGroupTrialScratch).
func BenchmarkMultiChannelGroupScenario(b *testing.B) {
	sc, err := Preset("ble3-crowd")
	if err != nil {
		b.Fatal(err)
	}
	benchKind(b, sc, 16)
}

// BenchmarkScheduleCache measures a cached re-build: the memoized path
// must be orders of magnitude below buildUncached.
func BenchmarkScheduleCache(b *testing.B) {
	spec := ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.05}
	if _, err := build(spec, 2, new(coverage.Workspace)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(spec, 2, new(coverage.Workspace)); err != nil {
			b.Fatal(err)
		}
	}
}
