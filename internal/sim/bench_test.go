package sim

import (
	"math/rand"
	"testing"

	"repro/internal/optimal"
	"repro/internal/schedule"
)

// benchPair is a production-scale pair (optimal schedule, 25-slot period)
// exercising the full world kernel: emissions, listens, reception matching.
func benchPair(tb testing.TB) (e, f schedule.Device) {
	tb.Helper()
	u, err := optimal.NewUnidirectional(2, 25, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return schedule.Device{B: u.Sender}, schedule.Device{C: u.Listener}
}

// TestPairTrialScratchZeroAllocSteadyState pins the arena contract: after a
// warm-up trial has grown the scratch to the workload's high-water mark,
// further trials through the world kernel must not allocate at all. A
// regression here silently reintroduces per-trial garbage on the hot path.
func TestPairTrialScratchZeroAllocSteadyState(t *testing.T) {
	e, f := benchPair(t)
	cfg := Config{Horizon: 100000}
	scr := NewScratch()
	rng := rand.New(rand.NewSource(1))
	// Warm-up: grows every arena slice and map to steady state.
	for i := 0; i < 4; i++ {
		if _, _, err := PairTrialScratch(e, f, cfg, rng, scr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := PairTrialScratch(e, f, cfg, rng, scr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state PairTrialScratch allocates %.1f objects/trial, want 0", allocs)
	}
}

// BenchmarkPairTrialScratch measures the raw per-trial kernel cost with a
// reused arena — the inner loop of the engine's batched workers. allocs/op
// must read 0 in steady state (asserted by the test above).
func BenchmarkPairTrialScratch(b *testing.B) {
	e, f := benchPair(b)
	cfg := Config{Horizon: 100000}
	scr := NewScratch()
	rng := rand.New(rand.NewSource(1))
	if _, _, err := PairTrialScratch(e, f, cfg, rng, scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PairTrialScratch(e, f, cfg, rng, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairTrialFreshArena is the same trial on a fresh arena per
// trial: the delta against BenchmarkPairTrialScratch is what arena reuse
// buys per trial.
func BenchmarkPairTrialFreshArena(b *testing.B) {
	e, f := benchPair(b)
	cfg := Config{Horizon: 100000}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PairTrialScratch(e, f, cfg, rng, NewScratch()); err != nil {
			b.Fatal(err)
		}
	}
}
