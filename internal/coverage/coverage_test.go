package coverage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// optimalPair builds the canonical optimal unidirectional pair from
// Section 5.1: listener with a single window of length d per period k·d,
// sender with equal beacon gaps λ = TC − d (so that successive beacon
// images tile the circle).
func optimalPair(t *testing.T, d timebase.Ticks, k int, omega timebase.Ticks) (schedule.BeaconSeq, schedule.WindowSeq) {
	t.Helper()
	c, err := schedule.NewUniformWindows(d, k)
	if err != nil {
		t.Fatal(err)
	}
	gap := c.Period - d
	b, err := schedule.NewEqualGapBeacons(k, gap, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

func TestAnalyzeOptimalPair(t *testing.T) {
	// d=10, k=4 → TC=40, window [30,40); beacons every 30 ticks, 4 per
	// period TB=120. Images tile [0,40) exactly.
	b, c := optimalPair(t, 10, 4, 2)
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("optimal pair not deterministic")
	}
	if res.CoveredFraction != 1.0 {
		t.Errorf("CoveredFraction = %v", res.CoveredFraction)
	}
	if !res.Disjoint || res.Redundant {
		t.Errorf("optimal pair should be disjoint: %+v", res)
	}
	if res.MinimalPrefix != 4 {
		t.Errorf("MinimalPrefix = %d, want 4 (= M = TC/Σd)", res.MinimalPrefix)
	}
	if res.MinMultiplicity != 1 || res.MaxMultiplicity != 1 {
		t.Errorf("multiplicity = %d/%d, want 1/1", res.MinMultiplicity, res.MaxMultiplicity)
	}
	// Worst packet latency: beacon 3 at delay 90; worst total: + gap 30.
	if res.WorstPacketLatency != 90 {
		t.Errorf("WorstPacketLatency = %d, want 90", res.WorstPacketLatency)
	}
	if res.WorstLatency != 120 {
		t.Errorf("WorstLatency = %d, want 120 (= M·λ, Theorem 5.1)", res.WorstLatency)
	}
	// Theorem 5.1 cross-check: L = ⌈TC/Σd⌉·ω/β with β = ω/λ → L = 4·30.
	if res.WorstLatency != 4*30 {
		t.Errorf("coverage bound violated")
	}
}

func TestAnalyzeNonDeterministic(t *testing.T) {
	// Beacon gap exactly TC: every beacon lands on the same offset image.
	c, _ := schedule.NewUniformWindows(10, 4) // TC = 40
	b, _ := schedule.NewEqualGapBeacons(3, 40, 2, 0)
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("gap == TC must not be deterministic")
	}
	if res.CoveredFraction != 0.25 {
		t.Errorf("CoveredFraction = %v, want 0.25", res.CoveredFraction)
	}
	if res.Redundant || res.Disjoint {
		t.Errorf("classification should be false/false for non-deterministic: %+v", res)
	}
}

func TestAnalyzeRedundantPerPeriod(t *testing.T) {
	// TC=20 (d=10, k=2), beacons every 10 ticks, 4 per period TB=40=2·TC:
	// every offset is covered exactly twice per beacon period (a Q=2
	// Appendix-B-style schedule), while the minimal prefix (2 beacons) is
	// disjoint.
	c, _ := schedule.NewUniformWindows(10, 2)
	b, _ := schedule.NewEqualGapBeacons(4, 10, 2, 0)
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("should be deterministic")
	}
	if res.MinimalPrefix != 2 {
		t.Errorf("MinimalPrefix = %d, want 2", res.MinimalPrefix)
	}
	if !res.Disjoint {
		t.Errorf("minimal prefix should be disjoint")
	}
	if res.MinMultiplicity != 2 || res.MaxMultiplicity != 2 {
		t.Errorf("multiplicity = %d/%d, want 2/2", res.MinMultiplicity, res.MaxMultiplicity)
	}
}

func TestAnalyzeRedundantPrefix(t *testing.T) {
	// Construct a pair whose minimal covering prefix overlaps itself:
	// TC=40, d=10 windows at [30,40); beacons with gaps 35,35,35,15
	// (period 120). Images: [30,40), [−35→[35,40)+[30? compute in test via
	// the engine; we assert only the classification flags.
	c, _ := schedule.NewUniformWindows(10, 4)
	b, err := schedule.NewBeaconsAt([]timebase.Ticks{0, 35, 70, 105}, 2, 120)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Skip("pair not deterministic; constructor changed")
	}
	if res.Disjoint && res.Redundant {
		t.Error("flags inconsistent")
	}
}

func TestTheorem42CoveragePerBeacon(t *testing.T) {
	// Theorem 4.2: every beacon induces coverage of exactly Σ dk.
	c, err := schedule.NewWindowsAt([]schedule.Window{{Start: 5, Len: 7}, {Start: 20, Len: 11}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule.NewBeaconsAt([]timebase.Ticks{0, 13, 29, 41}, 3, 90)
	m, err := BuildMap(b, c, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range m.Omegas {
		if got := o.Offsets.Measure(); got != c.SumD() {
			t.Errorf("beacon %d covers %d ticks, want Σd = %d (Theorem 4.2)",
				o.BeaconIndex, got, c.SumD())
		}
	}
	if got := m.TotalCoverage(); got != 12*c.SumD() {
		t.Errorf("Λ = %d, want %d", got, 12*c.SumD())
	}
}

func TestMapMatchesAnalyzeDeterminism(t *testing.T) {
	b, c := optimalPair(t, 10, 4, 2)
	m, err := BuildMap(b, c, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Deterministic() {
		t.Error("map of M beacons should be deterministic for the optimal pair")
	}
	m3, _ := BuildMap(b, c, 3, Options{})
	if m3.Deterministic() {
		t.Error("3 < M beacons cannot cover TC (Theorem 4.3)")
	}
}

// TestTableTiles: on the optimal pair of Section 5.1 the beacon images
// tile the circle, so every start's table entries give each of the four
// beacon delays {0, 30, 60, 90} exactly d = 10 ticks of offsets, and the
// beacon received at delay 30·i after start j is beacon j+i of its period.
func TestTableTiles(t *testing.T) {
	b, c := optimalPair(t, 10, 4, 2)
	tab, err := NewTable(b, c)
	if err != nil {
		t.Fatal(err)
	}
	mB := b.MB()
	for j := 0; j < mB; j++ {
		seen := map[timebase.Ticks]timebase.Ticks{}
		for s, lo := range tab.Bounds {
			hi := c.Period
			if s+1 < len(tab.Bounds) {
				hi = tab.Bounds[s+1]
			}
			d, i := tab.Delay[s*mB+j], int(tab.Index[s*mB+j])
			if d < 0 || d%30 != 0 || i != (j+int(d/30))%mB {
				t.Fatalf("start %d, segment [%d, %d): delay %d, index %d", j, lo, hi, d, i)
			}
			seen[d] += hi - lo
		}
		for _, d := range []timebase.Ticks{0, 30, 60, 90} {
			if seen[d] != 10 {
				t.Errorf("start %d: delay %d owns %d ticks, want 10", j, d, seen[d])
			}
		}
	}
}

func TestCountLastPacket(t *testing.T) {
	b, c := optimalPair(t, 10, 4, 2)
	plain, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withPkt, err := Analyze(b, c, Options{CountLastPacket: true})
	if err != nil {
		t.Fatal(err)
	}
	if withPkt.WorstLatency != plain.WorstLatency+2 {
		t.Errorf("CountLastPacket: worst %d, want %d+ω (Appendix A.4)",
			withPkt.WorstLatency, plain.WorstLatency)
	}
}

func TestTruncatedWindowsBreaksTightTiling(t *testing.T) {
	// The ideal tiling covers exactly; shrinking windows by ω (App A.3)
	// must open gaps and destroy determinism.
	b, c := optimalPair(t, 10, 4, 2)
	res, err := Analyze(b, c, Options{TruncatedWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Error("truncated windows should break the exact tiling")
	}
	if res.CoveredFraction >= 1.0 {
		t.Errorf("CoveredFraction = %v", res.CoveredFraction)
	}
}

func TestTruncatedWindowsRejectsTinyWindows(t *testing.T) {
	c, _ := schedule.NewUniformWindows(2, 4)
	b, _ := schedule.NewEqualGapBeacons(4, 6, 2, 0)
	if _, err := Analyze(b, c, Options{TruncatedWindows: true}); err == nil {
		t.Error("window length == ω must error under A.3 semantics")
	}
}

func TestAnalyzeRejectsEmpty(t *testing.T) {
	c, _ := schedule.NewUniformWindows(10, 4)
	b, _ := schedule.NewEqualGapBeacons(4, 30, 2, 0)
	if _, err := Analyze(schedule.BeaconSeq{Period: 10}, c, Options{}); err == nil {
		t.Error("empty beacons accepted")
	}
	if _, err := Analyze(b, schedule.WindowSeq{Period: 10}, Options{}); err == nil {
		t.Error("empty windows accepted")
	}
}

func TestAnalyzeIncommensuratePeriods(t *testing.T) {
	// TB=50, TC=40 → hyperperiod 200; beacon images drift by 10 per period
	// and eventually tile. One beacon per period, window d=10: images at
	// 0,−50,−100,… mod 40 = {30,20,10,0}·... check determinism.
	c, _ := schedule.NewUniformWindows(10, 4)
	b, _ := schedule.NewEqualGapBeacons(1, 50, 2, 0)
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("drifting images should cover")
	}
	// Worst case: 4 beacons needed → l* = 150; plus gap 50 → 200.
	if res.WorstLatency != 200 {
		t.Errorf("WorstLatency = %d, want 200", res.WorstLatency)
	}
	if res.MinimalPrefix != 4 {
		t.Errorf("MinimalPrefix = %d, want 4", res.MinimalPrefix)
	}
}

func TestAnalyzeMatchesBruteForce(t *testing.T) {
	type pairCase struct {
		name string
		b    schedule.BeaconSeq
		c    schedule.WindowSeq
	}
	var cases []pairCase
	b1, c1 := func() (schedule.BeaconSeq, schedule.WindowSeq) {
		c, _ := schedule.NewUniformWindows(10, 4)
		b, _ := schedule.NewEqualGapBeacons(4, 30, 2, 0)
		return b, c
	}()
	cases = append(cases, pairCase{"optimal", b1, c1})
	b2, _ := schedule.NewBeaconsAt([]timebase.Ticks{0, 13, 47}, 3, 70)
	c2, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 9}, {Start: 22, Len: 6}}, 45)
	cases = append(cases, pairCase{"irregular", b2, c2})
	b3, _ := schedule.NewEqualGapBeacons(1, 50, 2, 10)
	c3, _ := schedule.NewUniformWindows(10, 4)
	cases = append(cases, pairCase{"drifting", b3, c3})

	for _, pc := range cases {
		res, err := Analyze(pc.b, pc.c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		brute, ok := BruteForceWorstLatency(pc.b, pc.c, 1, Options{})
		if ok != res.Deterministic {
			t.Errorf("%s: determinism disagrees (analyze %v, brute %v)", pc.name, res.Deterministic, ok)
			continue
		}
		if !ok {
			continue
		}
		if brute != res.WorstLatency {
			t.Errorf("%s: worst latency analyze=%d brute=%d", pc.name, res.WorstLatency, brute)
		}
	}
}

// Property: on random small periodic pairs, the sweep engine and the
// brute-force evaluator agree exactly.
func TestAnalyzeMatchesBruteForceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random windows.
		tc := timebase.Ticks(rng.Intn(60) + 20)
		var windows []schedule.Window
		pos := timebase.Ticks(0)
		for pos < tc-3 && len(windows) < 3 {
			start := pos + timebase.Ticks(rng.Intn(8)+1)
			length := timebase.Ticks(rng.Intn(10) + 2)
			if start+length > tc {
				break
			}
			windows = append(windows, schedule.Window{Start: start, Len: length})
			pos = start + length + 1
		}
		if len(windows) == 0 {
			return true
		}
		c, err := schedule.NewWindowsAt(windows, tc)
		if err != nil {
			return true
		}
		// Random beacons.
		tb := timebase.Ticks(rng.Intn(80) + 20)
		omega := timebase.Ticks(rng.Intn(3) + 1)
		var times []timebase.Ticks
		pos = 0
		for pos < tb-omega && len(times) < 4 {
			tt := pos + timebase.Ticks(rng.Intn(15))
			if tt+omega > tb {
				break
			}
			times = append(times, tt)
			pos = tt + omega + timebase.Ticks(rng.Intn(10)+1)
		}
		if len(times) == 0 {
			return true
		}
		b, err := schedule.NewBeaconsAt(times, omega, tb)
		if err != nil {
			return true
		}
		res, err := Analyze(b, c, Options{})
		if err != nil {
			return false
		}
		brute, ok := BruteForceWorstLatency(b, c, 1, Options{})
		if ok != res.Deterministic {
			return false
		}
		return !ok || brute == res.WorstLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMeanLatencyBounds(t *testing.T) {
	b, c := optimalPair(t, 10, 4, 2)
	res, err := Analyze(b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency <= 0 || res.MeanLatency >= float64(res.WorstLatency) {
		t.Errorf("MeanLatency = %v not in (0, %d)", res.MeanLatency, res.WorstLatency)
	}
	// For the optimal pair: wait uniform in (0,30] mean 15; l* uniform over
	// {0,30,60,90} each on d=10 of TC=40 → mean 45. Total 60.
	if res.MeanLatency != 60 {
		t.Errorf("MeanLatency = %v, want 60", res.MeanLatency)
	}
}

func TestMinimalPrefixMatchesBeaconingTheorem(t *testing.T) {
	// Theorem 4.3: M = ⌈TC / Σd⌉ for disjoint-covering sequences.
	for _, k := range []int{2, 3, 5, 8} {
		d := timebase.Ticks(10)
		c, _ := schedule.NewUniformWindows(d, k)
		gap := c.Period - d
		b, _ := schedule.NewEqualGapBeacons(k, gap, 2, 0)
		res, err := Analyze(b, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic {
			t.Fatalf("k=%d: not deterministic", k)
		}
		if res.MinimalPrefix != k {
			t.Errorf("k=%d: MinimalPrefix = %d, want %d", k, res.MinimalPrefix, k)
		}
	}
}

// TestTableSizeMatchesTable: the entry count AnalyzeWithTableSize reports
// is the size of the table NewTable builds, so a caller can weigh a table
// before building it. It is 0 where NewTable refuses the pair (a capped
// horizon) or its options change the windows the table does not model.
func TestTableSizeMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ws Workspace
	for i := 0; i < 300; i++ {
		b := schedule.BeaconSeq{Period: timebase.Ticks(20 + rng.Intn(60))}
		for at := timebase.Ticks(rng.Intn(5)); len(b.Beacons) < 4; {
			l := timebase.Ticks(1 + rng.Intn(3))
			if at+l > b.Period {
				break
			}
			b.Beacons = append(b.Beacons, schedule.Beacon{Time: at, Len: l})
			at += l + timebase.Ticks(rng.Intn(20))
		}
		c := schedule.WindowSeq{Period: timebase.Ticks(20 + rng.Intn(60))}
		for at := timebase.Ticks(rng.Intn(5)); len(c.Windows) < 3; {
			l := timebase.Ticks(4 + rng.Intn(10))
			if at+l > c.Period {
				break
			}
			c.Windows = append(c.Windows, schedule.Window{Start: at, Len: l})
			at += l + 1 + timebase.Ticks(rng.Intn(20))
		}
		if b.Empty() || c.Empty() {
			continue
		}
		_, n, err := AnalyzeWithTableSize(b, c, Options{}, &ws)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(b, c)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n != len(tab.Delay) || n != len(tab.Index) || n != len(tab.Bounds)*b.MB() {
			t.Fatalf("%v / %v: analysis counts %d entries, table has %d (%d segments × %d starts)",
				b, c, n, len(tab.Delay), len(tab.Bounds), b.MB())
		}
		// A capped horizon may also fail a later start; the count is 0
		// either way.
		for _, opt := range []Options{{MaxBeacons: 3}, {TruncatedWindows: true}} {
			if _, n, _ := AnalyzeWithTableSize(b, c, opt, &ws); n != 0 {
				t.Fatalf("%v / %v, %+v: %d entries, want 0", b, c, opt, n)
			}
		}
	}
}
