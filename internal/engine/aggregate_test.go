package engine

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/timebase"
)

// checkCDFContract asserts the invariants every empirical CDF must hold:
// latencies and fractions monotone non-decreasing, and the final point
// carrying exactly the discovered mass over all judged pairs.
func checkCDFContract(t *testing.T, pts []CDFPoint, discovered, total int) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("expected CDF points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction < pts[i-1].Fraction {
			t.Fatalf("fractions not monotone at %d: %+v", i, pts)
		}
		if pts[i].Latency < pts[i-1].Latency {
			t.Fatalf("latencies not monotone at %d: %+v", i, pts)
		}
	}
	want := float64(discovered) / float64(total)
	if got := pts[len(pts)-1].Fraction; got != want {
		t.Fatalf("final CDF point %v, want discovered/total = %d/%d = %v", got, discovered, total, want)
	}
}

// accumCDFs finalizes the samples and misses on a pair point, once with
// exact keys and once quantized, and returns both CDFs.
func accumCDFs(t *testing.T, samples []timebase.Ticks, misses int) [][]CDFPoint {
	t.Helper()
	p, err := prepare(tinyScenario(1, 1), Options{}, new(coverage.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	var cdfs [][]CDFPoint
	for _, quantize := range []bool{false, true} {
		acc := newAccum(p.horizon, keyWidth(p.horizon, quantize), 0, 0)
		for _, s := range samples {
			acc.add(s)
		}
		acc.Misses = int64(misses)
		cdfs = append(cdfs, acc.aggregate(p.sc, p.b, quantize).CDF)
	}
	return cdfs
}

func TestEmpiricalCDFWithMisses(t *testing.T) {
	for _, pts := range accumCDFs(t, []timebase.Ticks{10, 20, 30, 40}, 6) { // 4 discovered of 10 judged
		checkCDFContract(t, pts, 4, 10)
		for _, p := range pts {
			if p.Fraction > 0.4 {
				t.Fatalf("fraction %v exceeds the discovered mass 0.4", p.Fraction)
			}
		}
	}
}

func TestEmpiricalCDFSmallSamples(t *testing.T) {
	cases := []struct {
		name   string
		sorted []timebase.Ticks
		misses int
	}{
		{"single sample", []timebase.Ticks{5}, 0},
		{"single sample one miss", []timebase.Ticks{5}, 1},
		{"two samples", []timebase.Ticks{3, 9}, 0},
		{"three samples two misses", []timebase.Ticks{1, 2, 3}, 2},
	}
	for _, tc := range cases {
		for _, pts := range accumCDFs(t, tc.sorted, tc.misses) {
			checkCDFContract(t, pts, len(tc.sorted), len(tc.sorted)+tc.misses)
		}
	}
}

func TestEmpiricalCDFNoSamples(t *testing.T) {
	for _, pts := range accumCDFs(t, nil, 7) {
		if pts != nil {
			t.Fatalf("all-miss sample set should yield no CDF, got %+v", pts)
		}
	}
}

// TestCollisionRateIsPooled: the aggregate's CollisionRate must be the
// pooled ratio of its own Collided/Transmissions counters, so a trial with
// 2 transmissions no longer weighs as much as one with 2000.
func TestCollisionRateIsPooled(t *testing.T) {
	agg, err := RunScenario(groupScenario(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Transmissions == 0 || agg.Collided == 0 {
		t.Fatalf("expected collision traffic, got %d/%d", agg.Collided, agg.Transmissions)
	}
	want := float64(agg.Collided) / float64(agg.Transmissions)
	if agg.CollisionRate != want {
		t.Fatalf("CollisionRate %v is not the pooled ratio %v", agg.CollisionRate, want)
	}
}
