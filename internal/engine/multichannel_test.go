package engine

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/timebase"
)

// mcScenario is a fast, deterministic multi-channel point.
func mcScenario() Scenario {
	sc, err := Preset("ble3-fast")
	if err != nil {
		panic(err)
	}
	return sc
}

// TestMultiChannelMatchesAnalysis cross-validates the Monte-Carlo trial
// against the exact analysis: with 4000 trials the sample mean is within
// 5% of multichannel.Analyze's expectation (the standard error is an
// order of magnitude below that), no sample exceeds the exact worst case,
// and a deterministic configuration never misses.
func TestMultiChannelMatchesAnalysis(t *testing.T) {
	sc := mcScenario()
	sc.Trials = 4000
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Deterministic {
		t.Fatal("ble3-fast must analyze as deterministic")
	}
	if agg.FailureRate != 0 {
		t.Fatalf("deterministic multi-channel pair missed: %v", agg.FailureRate)
	}
	if agg.ExactMean <= 0 || agg.ExactWorst <= 0 {
		t.Fatalf("analysis facts missing: mean=%v worst=%v", agg.ExactMean, agg.ExactWorst)
	}
	if rel := math.Abs(agg.Latency.Mean-agg.ExactMean) / agg.ExactMean; rel > 0.05 {
		t.Fatalf("Monte-Carlo mean %v deviates %.1f%% from exact mean %v (tolerance 5%%)",
			agg.Latency.Mean, rel*100, agg.ExactMean)
	}
	if agg.Latency.Max > agg.ExactWorst {
		t.Fatalf("sampled latency %d exceeds the exact worst case %d", agg.Latency.Max, agg.ExactWorst)
	}
	// CDF sanity against the analysis: monotone, topping out at full mass
	// at a latency no later than the exact worst case.
	for i := 1; i < len(agg.CDF); i++ {
		if agg.CDF[i].Fraction < agg.CDF[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v", i, agg.CDF)
		}
	}
	last := agg.CDF[len(agg.CDF)-1]
	if last.Fraction != 1 || last.Latency > agg.ExactWorst {
		t.Fatalf("CDF must reach 1.0 within the exact worst case: %+v", last)
	}

	// Per-channel accounting: every discovery lands on exactly one
	// channel, entry probabilities sum to 1, and every branch is covered.
	if len(agg.PerChannel) != 3 {
		t.Fatalf("want 3 per-channel rows, got %+v", agg.PerChannel)
	}
	totalDisc, totalEntry := 0, 0.0
	for _, c := range agg.PerChannel {
		totalDisc += c.Discoveries
		totalEntry += c.EntryProb
		if c.BranchCovered != 1 {
			t.Fatalf("deterministic config must cover every branch: %+v", c)
		}
		if c.BranchWorst > agg.ExactWorst {
			t.Fatalf("branch worst %d exceeds global worst %d", c.BranchWorst, agg.ExactWorst)
		}
	}
	if totalDisc != sc.Trials {
		t.Fatalf("per-channel discoveries sum to %d, want %d", totalDisc, sc.Trials)
	}
	if math.Abs(totalEntry-1) > 1e-9 {
		t.Fatalf("entry probabilities sum to %v, want 1", totalEntry)
	}
}

// TestMultiChannelCoverageMatchesAnalysis uses a deliberately gappy
// configuration (advertising interval equal to the scanner's full cycle,
// so PDU offsets never drift) to check the probabilistic contract: the
// Monte-Carlo discovery fraction matches the analysis' covered fraction
// within 3 percentage points (4σ for 2000 trials).
func TestMultiChannelCoverageMatchesAnalysis(t *testing.T) {
	sc := Scenario{
		Name: "mc-gappy",
		Protocol: ProtocolSpec{
			Kind: "multichannel", Omega: 128, Alpha: 1,
			Ta: 90 * timebase.Millisecond,
			Ts: 30 * timebase.Millisecond,
			Ds: 3 * timebase.Millisecond,
		},
		Population: 2,
		Trials:     2000,
		Horizon:    HorizonSpec{PeriodMultiple: 20},
		Seed:       23,
	}
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Deterministic {
		t.Fatal("the gappy configuration must not be deterministic")
	}
	if agg.CoveredFraction <= 0 || agg.CoveredFraction >= 1 {
		t.Fatalf("implausible covered fraction %v", agg.CoveredFraction)
	}
	discovered := 1 - agg.FailureRate
	if math.Abs(discovered-agg.CoveredFraction) > 0.03 {
		t.Fatalf("Monte-Carlo discovery fraction %v deviates from covered fraction %v past tolerance",
			discovered, agg.CoveredFraction)
	}
}

// TestSlotGridMatchesSlotAnalysis cross-validates the slot-grid trial
// against slots.Analyze through the engine: the Monte-Carlo mean is within
// 5% of the exact slot-domain expectation and no sample exceeds the exact
// worst case.
func TestSlotGridMatchesSlotAnalysis(t *testing.T) {
	for _, name := range []string{"slot-disco", "slot-uconnect", "slot-searchlight", "slot-diffcode"} {
		suite, err := Suite("slotgrid")
		if err != nil {
			t.Fatal(err)
		}
		var sc Scenario
		for _, s := range suite {
			if s.Name == name {
				sc = s
			}
		}
		sc.Trials = 3000
		agg, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !agg.Deterministic {
			t.Fatalf("%s: slot-aligned schedule must be deterministic", name)
		}
		if agg.FailureRate != 0 {
			t.Fatalf("%s: deterministic slot pair missed: %v", name, agg.FailureRate)
		}
		if agg.Latency.Max > agg.ExactWorst {
			t.Fatalf("%s: sampled %d exceeds exact worst %d", name, agg.Latency.Max, agg.ExactWorst)
		}
		if rel := math.Abs(agg.Latency.Mean-agg.ExactMean) / agg.ExactMean; rel > 0.05 {
			t.Fatalf("%s: Monte-Carlo mean %v deviates %.1f%% from exact mean %v",
				name, agg.Latency.Mean, rel*100, agg.ExactMean)
		}
		// Slot-domain latencies are whole slots.
		slotLen := sc.Protocol.SlotLen
		for _, q := range []timebase.Ticks{agg.Latency.Min, agg.Latency.P50, agg.Latency.Max} {
			if q%slotLen != 0 {
				t.Fatalf("%s: latency %d is not a whole number of %d-tick slots", name, q, slotLen)
			}
		}
	}
}

// TestNewKindsWorkerInvariance extends the engine's core determinism
// contract to the new kinds: multi-channel and slot-domain aggregates are
// byte-identical between 1 and 8 workers, on both aggregation paths.
func TestNewKindsWorkerInvariance(t *testing.T) {
	mc := mcScenario()
	mc.Trials = 500
	slot, err := Suite("slotgrid")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := append([]Scenario{mc}, slot...)
	for _, sc := range scenarios {
		serial, err := RunScenario(sc, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", sc.Name, err)
		}
		parallel, err := RunScenario(sc, Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", sc.Name, err)
		}
		if !bytes.Equal(marshalAgg(t, serial), marshalAgg(t, parallel)) {
			t.Errorf("%s: aggregates differ between 1 and 8 workers", sc.Name)
		}
	}
}

// TestMultiChannelStreamMatchesExact pins the quantized accuracy contract
// for a multi-channel point: counts, min/max, mean, per-channel discovery
// counts and branch facts identical; quantiles at most one bin above.
func TestMultiChannelStreamMatchesExact(t *testing.T) {
	sc := mcScenario()
	sc.Trials = 600
	exact, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream := runQuantized(t, sc)
	if exact.Streamed || !stream.Streamed {
		t.Fatalf("Streamed flags wrong: exact=%v stream=%v", exact.Streamed, stream.Streamed)
	}
	if stream.Pairs != exact.Pairs ||
		stream.Latency.N != exact.Latency.N ||
		stream.Latency.Misses != exact.Latency.Misses ||
		stream.Latency.Min != exact.Latency.Min ||
		stream.Latency.Max != exact.Latency.Max {
		t.Fatalf("exact-contract fields diverge:\nexact  %+v\nstream %+v", exact.Latency, stream.Latency)
	}
	if stream.Latency.Mean != exact.Latency.Mean {
		t.Fatalf("means diverge: %v vs %v", stream.Latency.Mean, exact.Latency.Mean)
	}
	res := stream.QuantileResolution
	for _, q := range [][2]timebase.Ticks{
		{exact.Latency.P50, stream.Latency.P50},
		{exact.Latency.P95, stream.Latency.P95},
		{exact.Latency.P99, stream.Latency.P99},
	} {
		if q[1] < q[0] || q[1] > q[0]+res {
			t.Errorf("streamed quantile %d outside [%d, %d+%d]", q[1], q[0], q[0], res)
		}
	}
	if len(stream.PerChannel) != len(exact.PerChannel) {
		t.Fatalf("per-channel row counts diverge: %d vs %d", len(stream.PerChannel), len(exact.PerChannel))
	}
	for i := range exact.PerChannel {
		if stream.PerChannel[i] != exact.PerChannel[i] {
			t.Fatalf("per-channel row %d diverges:\nexact  %+v\nstream %+v",
				i, exact.PerChannel[i], stream.PerChannel[i])
		}
	}
}

// TestMultiChannelSweep runs the sweep-channels preset end to end: every
// point stays deterministic, and the single-channel idealization beats the
// full 3-channel rotation (the scanner only visits each channel a third of
// the time, which is the cost the sweep exists to expose).
func TestMultiChannelSweep(t *testing.T) {
	sp, err := SweepPreset("sweep-channels")
	if err != nil {
		t.Fatal(err)
	}
	sp.Base.Trials = 60
	aggs, err := RunSweep(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 3 {
		t.Fatalf("want 3 grid points, got %d", len(aggs))
	}
	for i, a := range aggs {
		if !a.Deterministic {
			t.Fatalf("point %d not deterministic", i)
		}
	}
	if aggs[0].ExactWorst >= aggs[2].ExactWorst {
		t.Errorf("1-channel worst %d should beat the 3-channel rotation's %d",
			aggs[0].ExactWorst, aggs[2].ExactWorst)
	}
}

// TestNewKindsValidation: the new kinds reject the workloads and channel
// semantics their per-trial primitives do not model.
func TestNewKindsValidation(t *testing.T) {
	base := mcScenario()
	for _, tc := range []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"group", func(s *Scenario) { s.Population = 5 }, "pair workload"},
		{"churn", func(s *Scenario) { s.Churn = &ChurnSpec{Stay: 100} }, "churn"},
		{"collisions", func(s *Scenario) { s.Channel.Collisions = true }, "channel model"},
		{"jitter", func(s *Scenario) { s.Channel.Jitter = 10 }, "channel model"},
		{"negative channels", func(s *Scenario) { s.Protocol.Channels = -1 }, "channels"},
		{"negative ifs", func(s *Scenario) { s.Protocol.IFS = -1 }, "ifs"},
	} {
		sc := base
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: invalid multi-channel scenario accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	striped := Scenario{
		Name:       "striped-slot",
		Protocol:   ProtocolSpec{Kind: "slot-searchlight", Omega: 36, Alpha: 1, T: 16, Striped: true, SlotLen: 5000},
		Population: 2,
		Trials:     1,
		Seed:       1,
	}
	if _, err := RunScenario(striped, Options{}); err == nil || !strings.Contains(err.Error(), "striped") {
		t.Errorf("striped slot-searchlight should be rejected, got %v", err)
	}
}

// TestMultiChannelConfigPresetFillIn: the preset supplies whatever timing
// fields the spec leaves zero — including Omega, matching the "ble" kind's
// precedence (an explicit value always wins).
func TestMultiChannelConfigPresetFillIn(t *testing.T) {
	cfg, err := multiChannelConfig(ProtocolSpec{Kind: "multichannel", Preset: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Omega != 128 || cfg.Ta == 0 || cfg.Ts == 0 || cfg.Ds == 0 {
		t.Fatalf("preset fill-in incomplete: %+v", cfg)
	}
	if cfg.Channels != 3 || cfg.IFS != 150 {
		t.Fatalf("BLE defaults missing: %+v", cfg)
	}
	over, err := multiChannelConfig(ProtocolSpec{Kind: "multichannel", Preset: "fast", Omega: 64, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if over.Omega != 64 || over.Channels != 2 {
		t.Fatalf("explicit values must override the preset: %+v", over)
	}
}
