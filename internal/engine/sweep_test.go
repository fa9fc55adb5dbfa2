package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func testSweep() SweepSpec {
	return SweepSpec{
		Name:        "test-sweep",
		Description: "η × S grid fixture",
		Base: Scenario{
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1},
			Population: 2,
			Trials:     6,
			Horizon:    HorizonSpec{WorstMultiple: 3},
			Seed:       13,
		},
		Axes: []SweepAxis{
			{Field: "protocol.eta", Values: []float64{0.02, 0.05}},
			{Field: "population", Values: []float64{2, 4}},
		},
	}
}

func TestSweepExpandGrid(t *testing.T) {
	sp := testSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 4 || sp.Points() != 4 {
		t.Fatalf("expected 4 grid points, got %d (Points() = %d)", len(scenarios), sp.Points())
	}
	// Row-major: first axis slowest, last fastest.
	wantNames := []string{
		"test-sweep/eta=0.02,population=2",
		"test-sweep/eta=0.02,population=4",
		"test-sweep/eta=0.05,population=2",
		"test-sweep/eta=0.05,population=4",
	}
	wantEta := []float64{0.02, 0.02, 0.05, 0.05}
	wantPop := []int{2, 4, 2, 4}
	for i, sc := range scenarios {
		if sc.Name != wantNames[i] {
			t.Errorf("point %d named %q, want %q", i, sc.Name, wantNames[i])
		}
		if sc.Protocol.Eta != wantEta[i] || sc.Population != wantPop[i] {
			t.Errorf("point %d: eta=%g S=%d, want eta=%g S=%d",
				i, sc.Protocol.Eta, sc.Population, wantEta[i], wantPop[i])
		}
		// Un-swept base fields carry through unchanged.
		if sc.Trials != 6 || sc.Seed != 13 {
			t.Errorf("point %d lost base fields: %+v", i, sc)
		}
	}
}

func TestSweepExpandDoesNotShareChurn(t *testing.T) {
	sp := testSweep()
	sp.Base.Population = 4
	sp.Base.Churn = &ChurnSpec{StayWorstMultiple: 2}
	sp.Axes = []SweepAxis{{Field: "churn.stay_worst_multiple", Values: []float64{1, 3}}}
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if scenarios[0].Churn == scenarios[1].Churn {
		t.Fatal("grid points share one ChurnSpec pointer")
	}
	if scenarios[0].Churn.StayWorstMultiple != 1 || scenarios[1].Churn.StayWorstMultiple != 3 {
		t.Fatalf("churn axis not applied: %+v / %+v", scenarios[0].Churn, scenarios[1].Churn)
	}
	if sp.Base.Churn.StayWorstMultiple != 2 {
		t.Fatal("expansion mutated the base scenario")
	}
}

func TestSweepValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SweepSpec)
	}{
		{"no name", func(sp *SweepSpec) { sp.Name = "" }},
		{"no axes", func(sp *SweepSpec) { sp.Axes = nil }},
		{"unknown field", func(sp *SweepSpec) { sp.Axes[0].Field = "protocol.nope" }},
		{"duplicate field", func(sp *SweepSpec) { sp.Axes[1].Field = sp.Axes[0].Field }},
		{"empty values", func(sp *SweepSpec) { sp.Axes[0].Values = nil }},
		{"fractional integer", func(sp *SweepSpec) { sp.Axes[1].Values = []float64{2.5} }},
		{"grid blow-up", func(sp *SweepSpec) {
			vals := make([]float64, 400)
			for i := range vals {
				vals[i] = float64(i + 2)
			}
			sp.Axes[0].Values = vals
			sp.Axes[1].Values = vals
		}},
	}
	for _, tc := range cases {
		sp := testSweep()
		tc.mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	in := testSweep()
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SweepSpec
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the sweep:\nin  %+v\nout %+v", in, out)
	}
}

func TestSweepPresetsExpandAndRun(t *testing.T) {
	for _, name := range SweepPresets() {
		sp, err := SweepPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		scenarios, err := sp.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(scenarios) != sp.Points() {
			t.Fatalf("%s: %d scenarios from a %d-point grid", name, len(scenarios), sp.Points())
		}
	}
	if _, err := SweepPreset("nope"); err == nil {
		t.Fatal("unknown sweep preset accepted")
	}

	// One full preset run, trimmed: every point aggregates and points
	// stay in grid order.
	sp, err := SweepPreset("sweep-eta")
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := RunSweep(sp, Options{Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != sp.Points() {
		t.Fatalf("%d aggregates from a %d-point sweep", len(aggs), sp.Points())
	}
	for i, a := range aggs {
		want := sp.pointName(sp.pointValues(i))
		if a.Scenario.Name != want {
			t.Errorf("aggregate %d is %q, want %q", i, a.Scenario.Name, want)
		}
		if a.Trials != 4 {
			t.Errorf("point %d ran %d trials, want 4", i, a.Trials)
		}
	}
}

// TestSweepWorkerCountInvariance: the full JSON document of a sweep is
// byte-identical for 1 worker and for 8.
func TestSweepWorkerCountInvariance(t *testing.T) {
	sp := testSweep()
	sp.Base.Channel = ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360}

	render := func(workers int) []byte {
		t.Helper()
		aggs, err := RunSweep(sp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res := SuiteResult{Suite: sp.Name, Scenarios: aggs}
		res.StripRuntime() // wall times differ; the contract is about content
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if !bytes.Equal(render(1), render(8)) {
		t.Error("sweep JSON differs between 1 and 8 workers")
	}
}

// TestSuiteSharedPoolMatchesSerial: RunSuite now schedules scenarios over
// one shared pool; its aggregates must still match running each scenario
// alone.
func TestSuiteSharedPoolMatchesSerial(t *testing.T) {
	scenarios, err := testSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuite(scenarios, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		alone, err := RunScenario(sc, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalAgg(t, suite[i]), marshalAgg(t, alone)) {
			t.Errorf("scenario %q: suite-pooled aggregate differs from solo run", sc.Name)
		}
	}
}

// TestSweepErrorNamesPoint: a failing grid point must surface its
// coordinate name deterministically.
func TestSweepErrorNamesPoint(t *testing.T) {
	sp := testSweep()
	sp.Axes[0].Values = []float64{0.02, -1} // negative η fails in build
	_, err := RunSweep(sp, Options{})
	if err == nil {
		t.Fatal("sweep with an invalid point should fail")
	}
}

func TestSweepValidateRejectsDuplicateValues(t *testing.T) {
	sp := testSweep()
	sp.Axes[0].Values = []float64{0.02, 0.05, 0.02}
	if err := sp.Validate(); err == nil {
		t.Fatal("duplicate axis values should be rejected (they expand to identically-named points)")
	}
}
