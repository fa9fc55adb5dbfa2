// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Table 1, Figures 6 and 7, the Section 6.1 comparisons, the Appendix B
// example, the achievability certification), plus the four design-choice
// ablations eval.RunAblations reports (cmd/ndeval -exp ablate). The
// kernel, analysis and engine rows live in the cmd/ndbench registry. Run
// with:
//
//	go test -bench=. -benchmem
//
// The rendered rows/series themselves are printed by cmd/ndeval; the
// benchmarks regenerate the underlying computations and report the
// headline metric of each experiment via ReportMetric, so a regression in
// either performance or *result shape* is visible from the bench output.
package repro

import (
	"math"
	"testing"

	"repro/internal/coverage"
	"repro/internal/energy"
	"repro/internal/eval"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// BenchmarkTable1 regenerates Table 1: the four protocol formulas over the
// operating grid plus the five measured protocol instances.
func BenchmarkTable1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunTable1(eval.StdParams)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Validations[1].OptimalityVsEq21Single // Diffcode(q=5)
	}
	b.ReportMetric(ratio, "diffcode-ratio")
}

// BenchmarkFigure6 regenerates Figure 6: the asymmetric bound across
// duty-cycle sums and asymmetry ratios.
func BenchmarkFigure6(b *testing.B) {
	var worstDev float64
	for i := 0; i < b.N; i++ {
		res := eval.RunFigure6(eval.StdParams)
		worstDev = 0
		target := 4 * eval.StdParams.Alpha * float64(eval.StdParams.Omega)
		for _, pt := range res.Points {
			if d := math.Abs(pt.LTimesProduct-target) / target; d > worstDev {
				worstDev = d
			}
		}
	}
	b.ReportMetric(worstDev, "invariant-deviation")
}

// BenchmarkFigure7 regenerates Figure 7: collision-constrained bounds for
// S ∈ {10, 100, 1000} over the duty-cycle sweep.
func BenchmarkFigure7(b *testing.B) {
	var degradation float64
	for i := 0; i < b.N; i++ {
		res := eval.RunFigure7(eval.StdParams)
		last := len(res.Etas) - 1
		degradation = res.Series[2].Latency[last] / res.Unconstrained[last]
	}
	b.ReportMetric(degradation, "S1000-degradation")
}

// BenchmarkSlottedBounds regenerates the Section 6.1.1 Eq 18/19 comparison.
func BenchmarkSlottedBounds(b *testing.B) {
	var atOne float64
	for i := 0; i < b.N; i++ {
		res := eval.RunSlottedAlpha(eval.StdParams.Omega)
		for _, row := range res.Rows {
			if row.Alpha == 1 {
				atOne = row.ZhengRatio
			}
		}
	}
	b.ReportMetric(atOne, "eq18-ratio-at-alpha1")
}

// BenchmarkAppendixB regenerates the Appendix B example with both solvers.
func BenchmarkAppendixB(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunAppendixB(eval.StdParams)
		if err != nil {
			b.Fatal(err)
		}
		latency = res.Fractional.Latency / 1e6
	}
	b.ReportMetric(latency, "Lprime-seconds")
}

// BenchmarkAchievability regenerates the bound-achievability table: every
// Section 5 / Appendix C bound met by a constructed schedule.
func BenchmarkAchievability(b *testing.B) {
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunAchievability(eval.StdParams)
		if err != nil {
			b.Fatal(err)
		}
		worstRatio = 0
		for _, row := range res.Rows {
			if row.Ratio > worstRatio {
				worstRatio = row.Ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "worst-ratio")
}

// BenchmarkCollisionMonteCarlo regenerates the Eq 12 simulator validation
// (a reduced-trials version of cmd/ndeval -exp mc).
func BenchmarkCollisionMonteCarlo(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunCollisionMC(eval.StdParams, 10)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.Rows[len(res.Rows)-1].Measured
	}
	b.ReportMetric(rate, "collision-rate-S20")
}

// --- Ablation 1: coverage sweep vs brute-force offsets ---

func ablationPair(b *testing.B) (schedule.BeaconSeq, schedule.WindowSeq) {
	b.Helper()
	u, err := optimal.NewUnidirectional(36, 500, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	return u.Sender, u.Listener
}

// BenchmarkCoverageSweep measures the interval-sweep analyzer.
func BenchmarkCoverageSweep(b *testing.B) {
	s, l := ablationPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.Analyze(s, l, coverage.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageBruteForce measures the per-tick brute-force evaluator
// on the same pair — the ablation baseline the sweep replaces.
func BenchmarkCoverageBruteForce(b *testing.B) {
	s, l := ablationPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := coverage.BruteForceWorstLatency(s, l, 1, coverage.Options{}); !ok {
			b.Fatal("brute force found non-determinism")
		}
	}
}

// --- Ablation 2: equal gaps vs perturbed gaps (Theorem 5.1 condition) ---

// BenchmarkPerturbationAblation measures the latency inflation caused by
// violating the equal-M-gap-sums condition at identical duty cycles.
func BenchmarkPerturbationAblation(b *testing.B) {
	var inflation float64
	for i := 0; i < b.N; i++ {
		perturbed, err := optimal.PerturbedBeacons(36, 500, 8)
		if err != nil {
			b.Fatal(err)
		}
		u, err := optimal.NewUnidirectional(36, 500, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := coverage.Analyze(perturbed, u.Listener, coverage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		bound := eval.StdParams.CoverageBound(u.Listener.Period, 500, perturbed.Beta())
		inflation = float64(res.WorstLatency) / bound
	}
	b.ReportMetric(inflation, "latency-inflation")
}

// --- Ablation 3: slot length sweep (Equation 17: latency ∝ I) ---

// BenchmarkSlotLengthSweep measures diffcode worst-case latency across slot
// lengths, the effect motivating Section 6.1.1's slot-length lower limit.
func BenchmarkSlotLengthSweep(b *testing.B) {
	var span float64
	for i := 0; i < b.N; i++ {
		var first, last timebase.Ticks
		for _, slot := range []timebase.Ticks{200, 400, 800, 1600} {
			d, err := protocols.NewDiffcode(3, slot, 36)
			if err != nil {
				b.Fatal(err)
			}
			dev, err := d.DeviceFullDuplex()
			if err != nil {
				b.Fatal(err)
			}
			res, err := coverage.Analyze(dev.B, dev.C, coverage.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if first == 0 {
				first = res.WorstLatency
			}
			last = res.WorstLatency
		}
		span = float64(last) / float64(first) // ≈ 8 (latency ∝ I)
	}
	b.ReportMetric(span, "latency-x-for-8x-slots")
}

// --- Ablation 4: redundancy Q sweep under collisions (Appendix B) ---

// BenchmarkRedundancySweep measures Q-coverage latency growth.
func BenchmarkRedundancySweep(b *testing.B) {
	r, err := optimal.NewRedundant(36, 500, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var lastQ timebase.Ticks
	for i := 0; i < b.N; i++ {
		for q := 1; q <= 4; q++ {
			lat, ok, err := coverage.QWorstLatency(r.Sender, r.Listener, q, coverage.Options{})
			if err != nil || !ok {
				b.Fatalf("Q=%d: ok=%v err=%v", q, ok, err)
			}
			lastQ = lat
		}
	}
	b.ReportMetric(float64(lastQ)/float64(r.WorstCase), "L(Q=4)/L(Q=1)")
}

// BenchmarkLifetimePlan measures the inverse-bound planning path.
func BenchmarkLifetimePlan(b *testing.B) {
	targets := []float64{0.5, 1, 2, 5, 10, 30, 60}
	var days float64
	for i := 0; i < b.N; i++ {
		plan, err := energy.Plan(energy.NRF52, 128, energy.CR2032Capacity, targets)
		if err != nil {
			b.Fatal(err)
		}
		days = plan[len(plan)-1].LifetimeDays
	}
	b.ReportMetric(days, "days-at-60s")
}
