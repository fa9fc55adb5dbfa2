package sim

import (
	"math/rand"
	"testing"

	"repro/internal/coverage"
	"repro/internal/multichannel"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/slots"
	"repro/internal/timebase"
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

// TestPairTrialScratchZeroAllocSteadyState pins the arena contract for
// every trial entry point: 100 trials, each on its own seed and so its own
// phases, arrivals and jitter, run once to grow the arena to their
// high-water mark; run again on it, they must not allocate a single object
// in total — their outputs live in the arena too. Counting the whole pass
// rather than averaging per trial also catches garbage that only some
// phases make. A regression here silently reintroduces per-trial garbage
// on the hot path.
func TestPairTrialScratchZeroAllocSteadyState(t *testing.T) {
	e, f := benchPair(t)
	disco, err := slots.Disco(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewSlotGridPair(disco, disco, 100)
	if err != nil {
		t.Fatal(err)
	}
	cases := append(crowdCases(t), presetPairCases(t)...)
	cases = append(cases,
		trialCase{"pair", func(rng *rand.Rand, scr *Scratch) error {
			_, _, err := PairTrialScratch(e, f, Config{Horizon: 100000}, rng, scr)
			return err
		}},
		trialCase{"slotgrid", func(rng *rand.Rand, scr *Scratch) error {
			_, _, err := grid.TrialScratch(500000, rng, scr)
			return err
		}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scr := NewScratch()
			pass := func() {
				for seed := int64(1); seed <= 100; seed++ {
					if err := c.trial(scr.Rand(seed), scr); err != nil {
						t.Fatal(err)
					}
				}
			}
			// AllocsPerRun runs the pass once unmeasured (the warm-up),
			// then once measured.
			if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
				t.Errorf("100 steady-state trials allocate %.0f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkPairTrialScratch measures the raw per-trial kernel cost with a
// reused arena — the inner loop of the engine's batched workers. allocs/op
// reads 0 in steady state (the test above asserts it for every kind).
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

// The preset benches below rebuild the engine's preset designs from their
// parts (the engine imports sim, so sim's tests cannot ask it): the
// optimal symmetric pair at ω = 36 µs, and the BLE fast operating point
// over 3 advertising channels at ω = 128 µs. Each comes with the exact
// worst case the engine scales horizons and stays by.

func optimalPreset(tb testing.TB, eta float64) (optimal.Pair, timebase.Ticks) {
	tb.Helper()
	pair, err := optimal.NewSymmetric(36*timebase.Microsecond, 1, eta)
	if err != nil {
		tb.Fatal(err)
	}
	ana, err := coverage.Analyze(pair.E.B, pair.F.C, coverage.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pair, ana.WorstLatency
}

func ble3FastPreset(tb testing.TB) (multichannel.Config, timebase.Ticks) {
	tb.Helper()
	fast := protocols.BLEFastAdv
	mc := multichannel.Config{
		Ta: fast.Ta, Omega: 128 * timebase.Microsecond, IFS: 150 * timebase.Microsecond,
		Ts: fast.Ts, Ds: fast.Ds, Channels: 3,
	}
	res, err := multichannel.Analyze(mc)
	if err != nil {
		tb.Fatal(err)
	}
	return mc, res.WorstLatency
}

// benchTrials times one trial per op on one reused arena, trial i on the
// engine-style stream Scratch.Rand(i): a fixed -benchtime Nx runs the same
// trials on every build, so two builds can be compared op for op.
func benchTrials(b *testing.B, trial func(*rand.Rand, *Scratch) error) {
	scr := NewScratch()
	if err := trial(scr.Rand(-1), scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trial(scr.Rand(int64(i)), scr); err != nil {
			b.Fatal(err)
		}
	}
}

// trialCase is one named trial on a caller-owned arena.
type trialCase struct {
	name  string
	trial func(*rand.Rand, *Scratch) error
}

// crowdCases are the crowd presets' trials, where the kernel's collision
// pass and reception walk carry the cost: busynetwork's 20 devices with
// and without jitter, churn-busy's 10 churning devices, and ble3-crowd's
// and ble3-churn's BLE devices on 3 channels.
func crowdCases(tb testing.TB) []trialCase {
	busy, busyWorst := optimalPreset(tb, 0.05)
	jitterCfg := Config{Horizon: 12 * busyWorst, Collisions: true, HalfDuplex: true, Jitter: 360 * timebase.Microsecond}
	rawCfg := jitterCfg
	rawCfg.Jitter = 0
	churnCfg := Config{Horizon: 8 * busyWorst, Collisions: true, HalfDuplex: true, Jitter: 36 * timebase.Microsecond}
	mc, mcWorst := ble3FastPreset(tb)
	mcCfg := Config{Horizon: 6 * mcWorst, Collisions: true, HalfDuplex: true}
	mcChurnCfg := Config{Horizon: 10 * mcWorst, Collisions: true, HalfDuplex: true}
	return []trialCase{
		{"busynetwork-jitter", func(rng *rand.Rand, scr *Scratch) error {
			_, err := GroupTrialScratch(busy.E, 20, jitterCfg, rng, scr)
			return err
		}},
		{"busynetwork-raw", func(rng *rand.Rand, scr *Scratch) error {
			_, err := GroupTrialScratch(busy.E, 20, rawCfg, rng, scr)
			return err
		}},
		{"churn-busy", func(rng *rand.Rand, scr *Scratch) error {
			_, _, err := ChurnTrialScratch(busy.E, 10, 2*busyWorst, churnCfg, rng, scr)
			return err
		}},
		{"ble3-crowd", func(rng *rand.Rand, scr *Scratch) error {
			_, err := MultiChannelGroupTrialScratch(mc, 10, mcCfg, rng, scr)
			return err
		}},
		{"ble3-churn", func(rng *rand.Rand, scr *Scratch) error {
			_, err := MultiChannelChurnTrialScratch(mc, 8, 4*mcWorst, mcChurnCfg, rng, scr)
			return err
		}},
	}
}

// presetPairCases are the pair presets' trials: quickstart's optimal pair
// at η = 2 % on its quiet channel and with collisions on (which no preset
// sets, but which runs the collision pass on a lone emitter), and
// ble3-fast's advertiser against a channel-cycling scanner.
func presetPairCases(tb testing.TB) []trialCase {
	quick, quickWorst := optimalPreset(tb, 0.02)
	sender, listener := schedule.Device{B: quick.E.B}, schedule.Device{C: quick.F.C}
	quiet := Config{Horizon: 3 * quickWorst}
	collisions := quiet
	collisions.Collisions = true
	mc, mcWorst := ble3FastPreset(tb)
	return []trialCase{
		{"quickstart", func(rng *rand.Rand, scr *Scratch) error {
			_, _, err := PairTrialScratch(sender, listener, quiet, rng, scr)
			return err
		}},
		{"quickstart-collisions", func(rng *rand.Rand, scr *Scratch) error {
			_, _, err := PairTrialScratch(sender, listener, collisions, rng, scr)
			return err
		}},
		{"ble3-fast", func(rng *rand.Rand, scr *Scratch) error {
			_, err := MultiChannelPairTrialScratch(mc, 3*mcWorst, rng, scr)
			return err
		}},
	}
}

// BenchmarkCrowdTrials times the crowd presets' trials (crowdCases).
func BenchmarkCrowdTrials(b *testing.B) {
	for _, c := range crowdCases(b) {
		b.Run(c.name, func(b *testing.B) { benchTrials(b, c.trial) })
	}
}

// BenchmarkPresetPairTrials times the pair presets' trials
// (presetPairCases).
func BenchmarkPresetPairTrials(b *testing.B) {
	for _, c := range presetPairCases(b) {
		b.Run(c.name, func(b *testing.B) { benchTrials(b, c.trial) })
	}
}
