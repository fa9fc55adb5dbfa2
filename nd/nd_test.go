// Integration tests: exercise the public API end to end, the way the
// examples and downstream users do.
package nd_test

import (
	"math"
	"testing"

	"repro/nd"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart: bound → construction → exact analysis.
	p := nd.Params{Omega: 36, Alpha: 1}
	eta := 0.02
	bound := p.Symmetric(eta)
	if bound <= 0 || math.IsNaN(bound) {
		t.Fatalf("bound = %v", bound)
	}
	pair, err := nd.OptimalSymmetric(p.Omega, p.Alpha, eta)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := nd.Analyze(pair.E.B, pair.F.C, nd.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Deterministic {
		t.Fatal("optimal pair not deterministic")
	}
	ratio := float64(ana.WorstLatency) / p.Symmetric(pair.E.Eta(p.Alpha))
	if ratio < 0.999 || ratio > 1.1 {
		t.Errorf("optimality ratio %v", ratio)
	}
}

func TestPublicBoundsSurface(t *testing.T) {
	p := nd.Params{Omega: 36, Alpha: 1}
	checks := []struct {
		name string
		v    float64
	}{
		{"Symmetric", p.Symmetric(0.05)},
		{"Asymmetric", p.Asymmetric(0.02, 0.08)},
		{"Unidirectional", p.Unidirectional(0.01, 0.025)},
		{"Constrained", p.Constrained(0.05, 0.005)},
		{"MutualExclusive", p.MutualExclusive(0.05)},
		{"SlottedZheng", p.SlottedZhengTime(0.05)},
		{"SlottedCode", p.SlottedCodeTime(0.05)},
		{"Table1", p.Table1Latency(nd.Disco, 0.05, 0.01)},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || c.v <= 0 {
			t.Errorf("%s = %v", c.name, c.v)
		}
	}
	if nd.MinBeacons(40, 10) != 4 {
		t.Error("MinBeacons wrong")
	}
	if pc := nd.CollisionProbability(10, 0.01); pc <= 0 || pc >= 1 {
		t.Errorf("CollisionProbability = %v", pc)
	}
}

func TestProtocolsThroughPublicAPI(t *testing.T) {
	slotLen, omega := nd.Ticks(1000), nd.Ticks(36)
	disco, err := nd.NewDisco(3, 5, slotLen, omega)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := disco.DeviceFullDuplex()
	if err != nil {
		t.Fatal(err)
	}
	ana, err := nd.Analyze(dev.B, dev.C, nd.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Deterministic {
		t.Error("Disco (full duplex) should be deterministic")
	}
	if _, err := nd.NewDiffcode(4, slotLen, omega); err != nil {
		t.Errorf("Diffcode: %v", err)
	}
	if _, err := nd.NewUConnect(5, slotLen, omega); err != nil {
		t.Errorf("UConnect: %v", err)
	}
	if _, err := nd.NewSearchlight(8, true, slotLen, omega); err != nil {
		t.Errorf("Searchlight: %v", err)
	}
}

func TestBLEPresetsThroughPublicAPI(t *testing.T) {
	for _, preset := range []nd.PI{nd.BLEFastAdv, nd.BLEBalanced, nd.BLELowPower} {
		if err := preset.Validate(); err != nil {
			t.Errorf("%s: %v", preset.Name, err)
		}
	}
}

func TestSimulationThroughPublicAPI(t *testing.T) {
	res, err := nd.RunScenario(nd.Scenario{
		Name:       "public-pair",
		Protocol:   nd.ProtocolSpec{Kind: "optimal", Omega: 36, Eta: 0.05},
		Population: 2,
		Trials:     50,
		Horizon:    nd.HorizonSpec{WorstMultiple: 4},
		Seed:       1,
	}, nd.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Latency
	if stats.N != 50 || stats.Misses != 0 {
		t.Errorf("N = %d, misses = %d", stats.N, stats.Misses)
	}
	if stats.Max > res.ExactWorst+36 {
		t.Errorf("max %v exceeds worst case %v", stats.Max, res.ExactWorst)
	}
}

func TestMutualExclusiveThroughPublicAPI(t *testing.T) {
	q, err := nd.MutualExclusive(36, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	covered, worst := nd.VerifyMutualExclusive(q)
	if !covered {
		t.Fatal("quadruple not covered")
	}
	p := nd.Params{Omega: 36, Alpha: 1}
	if r := float64(worst) / p.MutualExclusive(q.Eta(1)); r < 0.95 || r > 1.1 {
		t.Errorf("ratio to Thm C.1 = %v", r)
	}
}

func TestSolveRedundancyThroughPublicAPI(t *testing.T) {
	p := nd.Params{Omega: 36, Alpha: 1}
	sol, err := nd.SolveRedundancy(p, 0.05, 0.0005, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Redundancy() < 1 || sol.Latency <= 0 {
		t.Errorf("solution implausible: %+v", sol)
	}
}

func TestTickConversions(t *testing.T) {
	if nd.Second != 1000*nd.Millisecond || nd.Millisecond != 1000*nd.Microsecond {
		t.Error("tick constants inconsistent")
	}
}

func TestSlotDomainThroughPublicAPI(t *testing.T) {
	a := nd.SlotSchedule{Period: 15, Active: []int{0, 3, 5, 6, 9, 10, 12}}
	worst, ok := nd.SlotWorstCase(a, a)
	if !ok {
		t.Fatal("Disco(3,5) slot schedule not deterministic")
	}
	if worst > 15 {
		t.Errorf("worst %d exceeds CRT bound 15", worst)
	}
}

func TestMultichannelThroughPublicAPI(t *testing.T) {
	cfg := nd.BLEMultichannel(20*nd.Millisecond, 128, 30*nd.Millisecond, 30*nd.Millisecond)
	res, err := nd.AnalyzeMultichannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Error("continuous 3-channel scanning should be deterministic")
	}
}

func TestLifetimePlanThroughPublicAPI(t *testing.T) {
	plan, err := nd.LifetimePlan(nd.NRF52, 128, nd.CR2032Capacity, []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[1].LifetimeDays <= plan[0].LifetimeDays {
		t.Errorf("plan implausible: %+v", plan)
	}
}

func TestBLE3ScenarioThroughPublicAPI(t *testing.T) {
	sc, err := nd.ScenarioPreset("ble3-fast")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials = 50
	res, err := nd.RunScenario(sc, nd.EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic || res.FailureRate != 0 {
		t.Fatalf("ble3-fast should discover deterministically: %+v", res.Latency)
	}
	if len(res.PerChannel) != 3 {
		t.Fatalf("want a 3-row per-channel breakdown, got %+v", res.PerChannel)
	}
	if nd.RenderScenarioChannels([]nd.ScenarioResult{res}) == "" {
		t.Error("per-channel renderer produced nothing")
	}
	slot, err := nd.SuiteScenarios("slotgrid")
	if err != nil {
		t.Fatal(err)
	}
	slot[0].Trials = 50
	sres, err := nd.RunScenario(slot[0], nd.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Deterministic || sres.FailureRate != 0 {
		t.Fatalf("slot-grid scenario should discover deterministically: %+v", sres.Latency)
	}
}
