package coverage

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// TestMaxBeaconsCapPreventsBlowup: pairs with coprime periods have
// hyperperiods equal to the product; the MaxBeacons option bounds the work
// and conservatively reports the coverage achieved within the cap.
func TestMaxBeaconsCapPreventsBlowup(t *testing.T) {
	// Periods 9973 and 9967 (both prime): hyperperiod ≈ 9.9e7 ticks,
	// ≈ 9967 beacon images — fine to compute exactly, but cap it anyway.
	b, err := schedule.NewEqualGapBeacons(1, 9973, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 500}}, 9967)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(b, c, Options{MaxBeacons: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Within 50 beacons only ~50·500 of 9967 offsets can be covered.
	if res.Deterministic {
		t.Error("capped horizon cannot certify determinism here")
	}
	if res.CoveredFraction <= 0 || res.CoveredFraction >= 1 {
		t.Errorf("covered fraction %v implausible", res.CoveredFraction)
	}
	// The uncapped analysis does certify it (images drift by 6 per period
	// and the window is 500 wide, so coverage completes).
	full, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Deterministic {
		t.Error("uncapped analysis should certify determinism")
	}
}

// TestAnalyzeManyWindowsPerPeriod exercises nC > 1 listener structures.
func TestAnalyzeManyWindowsPerPeriod(t *testing.T) {
	// Three windows of 5 per 60-tick period (γ = 0.25), beacons every 55.
	c, err := schedule.NewWindowsAt([]schedule.Window{
		{Start: 5, Len: 5}, {Start: 25, Len: 5}, {Start: 45, Len: 5},
	}, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.NewEqualGapBeacons(1, 55, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatalf("drifting beacon against 3-window listener should cover (fraction %v)",
			res.CoveredFraction)
	}
	// Cross-validate against brute force.
	brute, ok := BruteForceWorstLatency(b, c, 1, Options{})
	if !ok || brute != res.WorstLatency {
		t.Errorf("brute %v (ok=%v) vs analyze %v", brute, ok, res.WorstLatency)
	}
}

// TestQWorstLatencyInsufficientCoverage: requesting more redundancy than
// the schedule provides must report ok=false, not hang or invent numbers.
func TestQWorstLatencyInsufficientCoverage(t *testing.T) {
	c, _ := schedule.NewUniformWindows(10, 4)
	b, _ := schedule.NewEqualGapBeacons(4, 30, 2, 0)
	// The pair is exactly 1-covering per hyperperiod... but the infinite
	// sequence keeps cycling, so Q=3 is reachable within 3 hyperperiods.
	lat3, ok, err := QWorstLatency(b, c, 3, Options{})
	if err != nil || !ok {
		t.Fatalf("Q=3 should be reachable by cycling: ok=%v err=%v", ok, err)
	}
	lat1, ok, err := QWorstLatency(b, c, 1, Options{})
	if err != nil || !ok {
		t.Fatal("Q=1 failed")
	}
	if lat3 != 3*lat1 {
		t.Errorf("Q=3 latency %v, want 3×%v", lat3, lat1)
	}
	// With a capped horizon, the requested redundancy becomes unreachable.
	_, ok, err = QWorstLatency(b, c, 3, Options{MaxBeacons: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("capped horizon cannot deliver Q=3")
	}
}

// TestAnalyzeBeaconLongerThanWindow: packets longer than windows are
// received under the base model (any overlap → success at start-in-window
// semantics) but impossible under Appendix A.3 semantics.
func TestAnalyzeBeaconLongerThanWindow(t *testing.T) {
	c, _ := schedule.NewUniformWindows(10, 4)
	b, _ := schedule.NewEqualGapBeacons(4, 30, 15, 0) // ω = 15 > d = 10
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Error("base model should accept start-in-window receptions")
	}
	if _, err := Analyze(b, c, Options{TruncatedWindows: true}); err == nil {
		t.Error("A.3 semantics must reject ω ≥ d")
	}
}

// TestTickOverflowGuard: large but legal schedules must not overflow the
// hyperperiod computation silently — LCM panics on overflow by design.
func TestTickOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Skip("LCM did not overflow for these inputs")
		}
	}()
	huge := timebase.Ticks(1) << 40
	_ = timebase.LCM(huge+1, huge+3) // coprime-ish huge periods → overflow panic
}

// TestHorizonPastCapFormsNoHyperperiod: Ta = 4,000,000,007 against
// Ts = 9,000,000,041 is coprime, so lcm(Ta, Ts) overflows int64. Its
// 9,000,000,041 beacons per hyperperiod are counted, and capped, before the
// hyperperiod is formed: the pair is examined at the capped horizon, and
// NewTable refuses it with the cap's error without laying out any item.
func TestHorizonPastCapFormsNoHyperperiod(t *testing.T) {
	b := schedule.BeaconSeq{Period: 4_000_000_007, Beacons: []schedule.Beacon{{Time: 0, Len: 36}}}
	c := schedule.WindowSeq{Period: 9_000_000_041, Windows: []schedule.Window{{Start: 0, Len: 1_000_000}}}
	n, hyper, err := horizonBeacons(b, c.Period, Options{})
	if err != nil || n != maxHorizon || hyper != 0 {
		t.Fatalf("horizon %d, hyperperiod %d, error %v; want the cap %d, 0, nil", n, hyper, err, maxHorizon)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewTable(b, c)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "spans more than 4194304 beacons") {
		t.Fatalf("want the beacon cap's error, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing allocated %d bytes", alloc)
	}
}

// TestOverflowingPairIsAnError: a pair whose beacon count per hyperperiod
// is under the cap can still overflow int64, in the hyperperiod itself
// (TB = 2^62 + 3 against TC = 3) or in the delays the analysis reads past
// a hyperperiod that fits (TB = 2^61 + 3). Every analysis reports the
// overflow as an error.
func TestOverflowingPairIsAnError(t *testing.T) {
	c := schedule.WindowSeq{Period: 3, Windows: []schedule.Window{{Start: 0, Len: 1}}}
	for _, tc := range []struct {
		tb   timebase.Ticks
		want string
	}{
		{1<<62 + 3, "hyperperiod lcm(4611686018427387907, 3) overflows int64"},
		{1<<61 + 3, "4 beacons of period 2305843009213693955 overflow int64"},
	} {
		b := schedule.BeaconSeq{Period: tc.tb, Beacons: []schedule.Beacon{{Time: 0, Len: 1}}}
		_, err := Analyze(b, c, Options{})
		_, tableErr := NewTable(b, c)
		_, _, qErr := QWorstLatency(b, c, 2, Options{})
		for _, e := range []error{err, tableErr, qErr} {
			if e == nil || !strings.Contains(e.Error(), tc.want) {
				t.Errorf("TB %d: error %v, want %q", tc.tb, e, tc.want)
			}
		}
		if _, ok := BruteForceWorstLatency(b, c, 1, Options{}); ok {
			t.Errorf("TB %d: brute force reports a latency", tc.tb)
		}
	}
}
