package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/multichannel"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// TestMultiChannelPairTrialMatchesAnalysis: the trial samples the exact
// ensemble multichannel.Analyze integrates over, so over many trials the
// sample mean approaches the analytic expectation and no sample exceeds
// the analytic worst case.
func TestMultiChannelPairTrialMatchesAnalysis(t *testing.T) {
	cfg := multichannel.BLE(20_000, 128, 30_000, 30_000) // the BLE fast point
	res, err := multichannel.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("the fast point must be deterministic")
	}
	rng := rand.New(NewFastSource(42))
	scr := NewScratch()
	const trials = 5000
	horizon := 2 * res.WorstLatency
	var sum float64
	chans := make([]int, cfg.Channels)
	for i := 0; i < trials; i++ {
		oc, err := MultiChannelPairTrialScratch(cfg, horizon, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		if !oc.Discovered {
			t.Fatalf("trial %d missed with a horizon past the worst case", i)
		}
		if oc.Latency > res.WorstLatency {
			t.Fatalf("trial %d latency %d exceeds the exact worst case %d", i, oc.Latency, res.WorstLatency)
		}
		if oc.Channel < 0 || oc.Channel >= cfg.Channels {
			t.Fatalf("trial %d discovered on impossible channel %d", i, oc.Channel)
		}
		chans[oc.Channel]++
		sum += float64(oc.Latency)
	}
	mean := sum / trials
	if rel := math.Abs(mean-res.MeanLatency) / res.MeanLatency; rel > 0.05 {
		t.Fatalf("sample mean %v deviates %.1f%% from analytic mean %v", mean, rel*100, res.MeanLatency)
	}
	for c, n := range chans {
		if n == 0 {
			t.Fatalf("no discovery ever used channel %d: %v", c, chans)
		}
	}
}

// TestMultiChannelPairTrialCoverage: for a partially covered configuration
// the discovery fraction matches the analytic covered fraction.
func TestMultiChannelPairTrialCoverage(t *testing.T) {
	// Ta == the scanner cycle, so PDU offsets never drift and only the
	// initial offset decides discovery.
	cfg := multichannel.BLE(90_000, 128, 30_000, 3_000)
	res, err := multichannel.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("configuration should be gappy")
	}
	rng := rand.New(NewFastSource(7))
	scr := NewScratch()
	const trials = 4000
	horizon := timebase.Ticks(20) * cfg.Ta
	disc := 0
	for i := 0; i < trials; i++ {
		oc, err := MultiChannelPairTrialScratch(cfg, horizon, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Discovered {
			disc++
		}
	}
	got := float64(disc) / trials
	if math.Abs(got-res.CoveredFraction) > 0.03 {
		t.Fatalf("discovery fraction %v deviates from covered fraction %v", got, res.CoveredFraction)
	}
}

// TestMultiChannelPairTrialDeterministicStream: the same rng seed replays
// the same trial — the property the engine's per-trial sharding rests on.
func TestMultiChannelPairTrialDeterministicStream(t *testing.T) {
	cfg := multichannel.BLE(20_000, 128, 30_000, 30_000)
	a, err := MultiChannelPairTrialScratch(cfg, 200_000, rand.New(NewFastSource(99)), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiChannelPairTrialScratch(cfg, 200_000, rand.New(NewFastSource(99)), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a, b)
	}
}

// TestSlotGridPairTrialMatchesAnalysis: sampled slot-aligned latencies
// stay within the slots.Analyze worst case, hit it eventually, and match
// the analytic mean.
func TestSlotGridPairTrialMatchesAnalysis(t *testing.T) {
	sched, err := slots.Disco(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := slots.Analyze(sched, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("Disco(5,7) must be deterministic slot-aligned")
	}
	slotLen := timebase.Ticks(1000)
	horizon := timebase.Ticks(res.WorstSlots) * slotLen * 2
	pair, err := NewSlotGridPair(sched, sched, slotLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(NewFastSource(3))
	scr := NewScratch()
	const trials = 20000
	var sum float64
	worstSeen := timebase.Ticks(0)
	for i := 0; i < trials; i++ {
		at, ok, err := pair.TrialScratch(horizon, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d missed", i)
		}
		if at%slotLen != 0 {
			t.Fatalf("latency %d is not slot-aligned", at)
		}
		if at > worstSeen {
			worstSeen = at
		}
		sum += float64(at)
	}
	worstTicks := timebase.Ticks(res.WorstSlots) * slotLen
	if worstSeen > worstTicks {
		t.Fatalf("sampled worst %d exceeds analytic worst %d", worstSeen, worstTicks)
	}
	// 35 phase pairs: 20k trials visit all of them, including the worst.
	if worstSeen != worstTicks {
		t.Fatalf("sampled worst %d never reached the analytic worst %d", worstSeen, worstTicks)
	}
	mean := sum / trials
	analytic := res.MeanSlots * float64(slotLen)
	if rel := math.Abs(mean-analytic) / analytic; rel > 0.05 {
		t.Fatalf("sample mean %v deviates %.1f%% from analytic mean %v", mean, rel*100, analytic)
	}
}

// TestSlotGridPairTrialHorizon: a horizon below the worst case produces
// misses rather than latencies past the horizon.
func TestSlotGridPairTrialHorizon(t *testing.T) {
	sched, err := slots.Disco(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	slotLen := timebase.Ticks(1000)
	horizon := 3 * slotLen
	pair, err := NewSlotGridPair(sched, sched, slotLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(NewFastSource(11))
	scr := NewScratch()
	misses := 0
	for i := 0; i < 500; i++ {
		at, ok, err := pair.TrialScratch(horizon, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		if ok && at > horizon {
			t.Fatalf("latency %d past the horizon %d", at, horizon)
		}
		if !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("a 3-slot horizon should produce misses for Disco(5,7)")
	}
}
