package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/timebase"
)

func testScenario() Scenario {
	return Scenario{
		Name:        "test",
		Description: "round-trip fixture",
		Protocol:    ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.05},
		Population:  4,
		Trials:      10,
		Horizon:     HorizonSpec{WorstMultiple: 6},
		Channel:     ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360},
		Churn:       &ChurnSpec{StayWorstMultiple: 2},
		Seed:        42,
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	in := testScenario()
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Scenario
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the scenario:\nin  %+v\nout %+v", in, out)
	}
}

func TestScenarioValidate(t *testing.T) {
	good := testScenario()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"no kind", func(s *Scenario) { s.Protocol.Kind = "" }},
		{"bad omega", func(s *Scenario) { s.Protocol.Omega = 0 }},
		{"population 1", func(s *Scenario) { s.Population = 1 }},
		{"no trials", func(s *Scenario) { s.Trials = 0 }},
		{"negative jitter", func(s *Scenario) { s.Channel.Jitter = -1 }},
		{"empty churn", func(s *Scenario) { s.Churn = &ChurnSpec{} }},
		{"churn over-specified", func(s *Scenario) {
			s.Churn = &ChurnSpec{Stay: 1000, StayWorstMultiple: 2}
		}},
		{"horizon over-specified", func(s *Scenario) {
			s.Horizon = HorizonSpec{Ticks: 1000, WorstMultiple: 3}
		}},
		// Negative horizon and stay values used to pass the > 0 checks and
		// were then silently ignored by resolveHorizon/resolveStay.
		{"negative horizon ticks", func(s *Scenario) {
			s.Horizon = HorizonSpec{Ticks: -1}
		}},
		{"negative worst multiple", func(s *Scenario) {
			s.Horizon = HorizonSpec{WorstMultiple: -2}
		}},
		{"negative period multiple", func(s *Scenario) {
			s.Horizon = HorizonSpec{PeriodMultiple: -0.5}
		}},
		{"negative churn stay", func(s *Scenario) {
			s.Churn = &ChurnSpec{Stay: -1000}
		}},
		{"negative stay worst multiple", func(s *Scenario) {
			s.Churn = &ChurnSpec{StayWorstMultiple: -2}
		}},
	}
	for _, tc := range cases {
		sc := testScenario()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestHashIgnoresTrialCount(t *testing.T) {
	a := testScenario()
	b := testScenario()
	b.Trials = 10 * a.Trials
	if a.Hash() != b.Hash() {
		t.Fatal("hash must be invariant to the trial count (seed prefix property)")
	}
}

func TestHashIgnoresCosmeticFields(t *testing.T) {
	a := testScenario()
	b := testScenario()
	b.Name = "renamed"
	b.Description = "re-worded"
	if a.Hash() != b.Hash() {
		t.Fatal("renaming a scenario must not reshuffle its RNG streams")
	}
}

func TestHashSeparatesScenarios(t *testing.T) {
	base := testScenario()
	seen := map[uint64]string{base.Hash(): "base"}
	variants := map[string]func(*Scenario){
		"seed":       func(s *Scenario) { s.Seed++ },
		"eta":        func(s *Scenario) { s.Protocol.Eta = 0.02 },
		"population": func(s *Scenario) { s.Population++ },
		"jitter":     func(s *Scenario) { s.Channel.Jitter++ },
		"horizon":    func(s *Scenario) { s.Horizon = HorizonSpec{WorstMultiple: 7} },
	}
	for name, mutate := range variants {
		sc := testScenario()
		mutate(&sc)
		h := sc.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestTrialSeedsDistinct(t *testing.T) {
	h := testScenario().Hash()
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := trialSeed(h, i)
		if s < 0 {
			t.Fatalf("trial %d: negative seed %d", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
}

func TestHorizonResolution(t *testing.T) {
	b, err := build(ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.05}, 2, new(coverage.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Analysis.Deterministic {
		t.Fatal("optimal schedule should be deterministic")
	}
	sc := testScenario()

	sc.Horizon = HorizonSpec{Ticks: 12345}
	if h, _ := resolveHorizon(sc, b); h != 12345 {
		t.Fatalf("explicit horizon: got %d", h)
	}
	sc.Horizon = HorizonSpec{WorstMultiple: 2}
	if h, _ := resolveHorizon(sc, b); h != 2*b.Analysis.WorstLatency {
		t.Fatalf("worst-multiple horizon: got %d, want %d", h, 2*b.Analysis.WorstLatency)
	}
	sc.Horizon = HorizonSpec{PeriodMultiple: 4}
	if h, _ := resolveHorizon(sc, b); h != 4*b.maxPeriod() {
		t.Fatalf("period-multiple horizon: got %d, want %d", h, 4*b.maxPeriod())
	}
	sc.Horizon = HorizonSpec{}
	if h, _ := resolveHorizon(sc, b); h != 3*b.Analysis.WorstLatency {
		t.Fatalf("default horizon: got %d, want %d", h, 3*b.Analysis.WorstLatency)
	}
}

func TestHorizonSeconds(t *testing.T) {
	if timebase.Second != 1e6 {
		t.Fatalf("tick base changed: 1 s = %d ticks", timebase.Second)
	}
}
