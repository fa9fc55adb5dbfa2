package optimal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/coverage"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// Property: every constructible unidirectional configuration is
// deterministic, disjoint, and meets its predicted worst case exactly.
func TestUnidirectionalAlwaysTight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		omega := timebase.Ticks(rng.Intn(20) + 1)
		d := omega + timebase.Ticks(rng.Intn(50)+1)
		k := rng.Intn(10) + 2
		m := rng.Intn(3) + 1
		u, err := NewUnidirectional(omega, d, k, m)
		if err != nil {
			return true // unconstructible combination, fine
		}
		res, err := coverage.Analyze(u.Sender, u.Listener, coverage.Options{})
		if err != nil {
			return false
		}
		return res.Deterministic && res.Disjoint &&
			res.WorstLatency == u.WorstCase &&
			res.MinimalPrefix == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: scaling every time quantity by a constant scales the worst-case
// latency by the same constant (the bounds are scale-free in time).
func TestScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		omega := timebase.Ticks(rng.Intn(5) + 1)
		d := omega + timebase.Ticks(rng.Intn(20)+1)
		k := rng.Intn(6) + 2
		scale := timebase.Ticks(rng.Intn(7) + 2)
		u1, err := NewUnidirectional(omega, d, k, 1)
		if err != nil {
			return true
		}
		u2, err := NewUnidirectional(omega*scale, d*scale, k, 1)
		if err != nil {
			return true
		}
		r1, err := coverage.Analyze(u1.Sender, u1.Listener, coverage.Options{})
		if err != nil {
			return false
		}
		r2, err := coverage.Analyze(u2.Sender, u2.Listener, coverage.Options{})
		if err != nil {
			return false
		}
		return r2.WorstLatency == r1.WorstLatency*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the Monte-Carlo simulator never observes a latency above the
// analytic worst case (+ω for the completion-time convention) on
// deterministic pairs.
func TestSimulatorNeverExceedsAnalyticWorstCase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		omega := timebase.Ticks(rng.Intn(10) + 1)
		d := omega + timebase.Ticks(rng.Intn(30)+1)
		k := rng.Intn(6) + 2
		u, err := NewUnidirectional(omega, d, k, 1)
		if err != nil {
			return true
		}
		cfg := sim.Config{Horizon: 3 * u.WorstCase}
		trialRng := rand.New(rand.NewSource(rng.Int63()))
		scr := sim.NewScratch()
		for i := 0; i < 40; i++ {
			at, ok, err := sim.PairTrialScratch(u.SenderDevice(), u.ListenerDevice(), cfg, trialRng, scr)
			if err != nil || !ok || at > u.WorstCase+omega {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every constructible quadruple is fully covered and has
// worst-case one-way latency exactly T.
func TestQuadrupleAlwaysCovered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		omega := timebase.Ticks(rng.Intn(8) + 1)
		u := omega + timebase.Ticks(rng.Intn(30)+1)
		m := rng.Intn(6) + 1
		q, err := NewMutualExclusive(omega, u, m)
		if err != nil {
			return true
		}
		covered, worst := VerifyMutualExclusive(q)
		return covered && worst == q.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: redundant coverage latency is exactly linear in Q.
func TestRedundancyLinearInQ(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		omega := timebase.Ticks(rng.Intn(5) + 1)
		d := omega + timebase.Ticks(rng.Intn(15)+1)
		k := rng.Intn(4) + 2
		q := rng.Intn(3) + 2
		r, err := NewRedundant(omega, d, k, q)
		if err != nil {
			return true
		}
		lat, ok, err := coverage.QWorstLatency(r.Sender, r.Listener, q, coverage.Options{})
		if err != nil || !ok {
			return false
		}
		return lat == timebase.Ticks(q)*r.WorstCase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
