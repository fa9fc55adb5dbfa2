package engine

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// groupScenario exercises every aggregation path: collisions, jitter,
// misses, multiple devices.
func groupScenario() Scenario {
	return Scenario{
		Name:       "group-test",
		Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.05},
		Population: 6,
		Trials:     12,
		Horizon:    HorizonSpec{WorstMultiple: 6},
		Channel:    ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360},
		Seed:       5,
	}
}

// marshalAgg serializes an aggregate's deterministic content: the runtime
// (observability) section legitimately differs run to run and is outside
// the invariance contract these tests pin, so it is stripped first.
func marshalAgg(t *testing.T, a Aggregate) []byte {
	t.Helper()
	a.Runtime = nil
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWorkerCountInvariance is the engine's core contract: the same
// scenario aggregates bit-identically with 1 worker and with many.
func TestWorkerCountInvariance(t *testing.T) {
	scenarios := []Scenario{groupScenario()}
	if quick, err := Preset("quickstart"); err == nil {
		quick.Trials = 40
		scenarios = append(scenarios, quick)
	}
	churn, err := Preset("churn-busy")
	if err != nil {
		t.Fatal(err)
	}
	churn.Trials = 8
	scenarios = append(scenarios, churn)

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

// TestRunScenarioRepeatable: same scenario, same options, twice → same
// bytes (the schedule cache must not leak state into results).
func TestRunScenarioRepeatable(t *testing.T) {
	sc := groupScenario()
	a, err := RunScenario(sc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalAgg(t, a), marshalAgg(t, b)) {
		t.Fatal("repeated runs differ")
	}
}

func TestSeedChangesResults(t *testing.T) {
	sc := groupScenario()
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshalAgg(t, a), marshalAgg(t, b)) {
		t.Fatal("different seeds produced identical aggregates")
	}
}

// TestTrialPrefixProperty: the first N trials of a longer run see the same
// randomness as an N-trial run, so aggregates built from per-trial outputs
// agree on the shared prefix. We verify via the executor: a 4-trial run's
// sample multiset must be a subset of the 8-trial run's.
func TestTrialPrefixProperty(t *testing.T) {
	sc := groupScenario()
	sc.Trials = 4
	short, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials = 8
	long, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if short.Pairs >= long.Pairs {
		// Same per-pair accounting per trial: 6·5 pairs × trials.
		t.Fatalf("pair counts: short %d, long %d", short.Pairs, long.Pairs)
	}
	if short.Pairs != 4*6*5 || long.Pairs != 8*6*5 {
		t.Fatalf("unexpected pair totals: short %d, long %d", short.Pairs, long.Pairs)
	}
}

func TestPairScenarioMatchesExactAnalysis(t *testing.T) {
	sc, err := Preset("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials = 120
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Deterministic {
		t.Fatal("quickstart schedule should be deterministic")
	}
	if agg.FailureRate != 0 {
		t.Fatalf("deterministic pair with 3×worst horizon missed %.1f%%", agg.FailureRate*100)
	}
	if agg.Latency.Max > agg.ExactWorst {
		t.Fatalf("simulated max %d exceeds exact worst case %d", agg.Latency.Max, agg.ExactWorst)
	}
	if agg.BoundRatio < 0.9 || agg.BoundRatio > 1.5 {
		t.Fatalf("optimal construction should sit near the bound, ratio %.3f", agg.BoundRatio)
	}
}

// TestAsymmetricBoundRatioIsTwoWay: the Theorem 5.7 bound constrains the
// slower direction, so the reported worst case must cover both directions
// — a fundamental bound cannot be beaten (ratio ≥ 1, up to rounding).
func TestAsymmetricBoundRatioIsTwoWay(t *testing.T) {
	sc, err := Preset("sensornet")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunScenario(sc, Options{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if agg.BoundRatio < 0.999 {
		t.Fatalf("two-way worst case reported below the fundamental bound: ratio %.4f", agg.BoundRatio)
	}
}

func TestGroupScenarioCollisions(t *testing.T) {
	agg, err := RunScenario(groupScenario(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Transmissions == 0 {
		t.Fatal("no transmissions recorded")
	}
	if agg.CollisionRate <= 0 {
		t.Fatal("collision channel with 6 contending devices should collide sometimes")
	}
	if len(agg.CDF) == 0 {
		t.Fatal("CDF missing")
	}
	for i := 1; i < len(agg.CDF); i++ {
		if agg.CDF[i].Fraction < agg.CDF[i-1].Fraction || agg.CDF[i].Latency < agg.CDF[i-1].Latency {
			t.Fatalf("CDF not monotone at %d: %+v", i, agg.CDF)
		}
	}
}

func TestTrialsOverride(t *testing.T) {
	sc := groupScenario()
	agg, err := RunScenario(sc, Options{Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 3 {
		t.Fatalf("override ignored: %d trials", agg.Trials)
	}
}

// TestEffectiveScenario pins the one fold of run options into a scenario
// that runs, journals and the daemon share: Trials overrides, Exact (the
// option's or the scenario's) forces zero trials, and the result is
// validated with the scenario's own error.
func TestEffectiveScenario(t *testing.T) {
	sc, err := Preset("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		exactSpec  bool
		opt        Options
		wantTrials int
		wantExact  bool
	}{
		{"spec as is", false, Options{}, sc.Trials, false},
		{"trials override", false, Options{Trials: 9}, 9, false},
		{"exact option", false, Options{Trials: 9, Exact: true}, 0, true},
		{"exact scenario", true, Options{Trials: 9}, 0, true},
	} {
		in := sc
		in.Exact = c.exactSpec
		got, err := EffectiveScenario(in, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Trials != c.wantTrials || got.Exact != c.wantExact {
			t.Errorf("%s: trials %d exact %v, want %d %v", c.name, got.Trials, got.Exact, c.wantTrials, c.wantExact)
		}
	}
	bad := sc
	bad.Population = 1
	_, err = EffectiveScenario(bad, Options{})
	if want := bad.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("invalid scenario: got error %v, want %v", err, want)
	}
}

func TestGroupNeedsSymmetricProtocol(t *testing.T) {
	sc := groupScenario()
	sc.Protocol = ProtocolSpec{Kind: "asymmetric", Omega: 36, Alpha: 1, EtaE: 0.01, EtaF: 0.1}
	if _, err := RunScenario(sc, Options{}); err == nil {
		t.Fatal("asymmetric group scenario should be rejected")
	}
	// Churn also instantiates every device from E, even at population 2.
	sc.Population = 2
	sc.Churn = &ChurnSpec{StayWorstMultiple: 2}
	if _, err := RunScenario(sc, Options{}); err == nil {
		t.Fatal("asymmetric churn scenario should be rejected")
	}
}

func TestChurnContactBins(t *testing.T) {
	sc, err := Preset("churn-quiet")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials = 10
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.ContactBins) != len(contactBinEdges) {
		t.Fatalf("got %d contact bins, want %d", len(agg.ContactBins), len(contactBinEdges))
	}
	total, discovered := 0, 0
	for _, b := range agg.ContactBins {
		if b.Discovered > b.Contacts {
			t.Fatalf("bin %+v: discovered exceeds contacts", b)
		}
		total += b.Contacts
		discovered += b.Discovered
	}
	if total != agg.Pairs {
		t.Fatalf("bins hold %d contacts, aggregate judged %d", total, agg.Pairs)
	}
	if discovered != agg.Pairs-agg.Latency.Misses {
		t.Fatalf("bins hold %d discoveries, aggregate has %d", discovered, agg.Pairs-agg.Latency.Misses)
	}
	// Contacts of at least the worst case are guaranteed on a quiet
	// channel — the last bins (overlap ≥ L) must discover everything.
	for _, b := range agg.ContactBins {
		if b.Lo >= 1.0 && b.Contacts > 0 && b.Discovered != b.Contacts {
			t.Fatalf("bin [%.2f,%.2f): %d/%d discovered — guaranteed contacts missed on a quiet channel",
				b.Lo, b.Hi, b.Discovered, b.Contacts)
		}
	}
}

// TestPooledArenasStayBounded: the engine keeps worker arenas across runs,
// but not one a large crowd grew. busynetwork-jitter at 200 devices grows
// an arena to about 6.7 MB, past maxPooledArena; after it and a small
// crowd, the arena the pool hands out must be within the bound. With one P
// the pool hands back what the last run put into it, so an oversized arena
// the large run had kept would reach the small run and then this check.
func TestPooledArenasStayBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	large, err := Preset("busynetwork-jitter")
	if err != nil {
		t.Fatal(err)
	}
	large.Population, large.Trials = 200, 1
	small, err := Preset("ble3-crowd")
	if err != nil {
		t.Fatal(err)
	}
	small.Trials = 2
	for _, sc := range []Scenario{large, small} {
		if _, err := RunScenario(sc, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	scr := arenas.Get().(*sim.Scratch)
	defer releaseArena(scr)
	if got := scr.Footprint(); got > maxPooledArena {
		t.Errorf("pooled arena holds %d bytes, want at most %d", got, maxPooledArena)
	}
}
