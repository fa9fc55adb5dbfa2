package multichannel

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

func TestValidate(t *testing.T) {
	good := BLE(20000, 128, 30000, 30000)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Ta: 1000, Omega: 100, Ts: 1000, Ds: 100, Channels: 0},
		{Ta: 1000, Omega: 0, Ts: 1000, Ds: 100, Channels: 1},
		{Ta: 100, Omega: 100, Ts: 1000, Ds: 100, Channels: 1}, // Ta ≤ event
		{Ta: 1000, Omega: 100, Ts: 1000, Ds: 0, Channels: 1},
		{Ta: 1000, Omega: 100, Ts: 1000, Ds: 2000, Channels: 1},
		{Ta: 1000, Omega: 100, IFS: -1, Ts: 1000, Ds: 100, Channels: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestSingleChannelMatchesCoverageEngine: with one channel and zero IFS,
// the multichannel analyzer must agree exactly with the general coverage
// engine on the equivalent PI pair.
func TestSingleChannelMatchesCoverageEngine(t *testing.T) {
	cfg := Config{Ta: 1700, Omega: 36, IFS: 0, Ts: 4000, Ds: 500, Channels: 1}
	got, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.NewBeaconsAt([]timebase.Ticks{0}, 36, 1700)
	if err != nil {
		t.Fatal(err)
	}
	c, err := schedule.NewWindowsAt([]schedule.Window{{Start: 3500, Len: 500}}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coverage.Analyze(b, c, coverage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Deterministic != want.Deterministic {
		t.Fatalf("determinism: multichannel %v vs coverage %v", got.Deterministic, want.Deterministic)
	}
	if got.WorstLatency != want.WorstLatency {
		t.Errorf("worst: multichannel %v vs coverage %v", got.WorstLatency, want.WorstLatency)
	}
	if math.Abs(got.MeanLatency-want.MeanLatency) > 1 {
		t.Errorf("mean: multichannel %v vs coverage %v", got.MeanLatency, want.MeanLatency)
	}
}

func TestThreeChannelContinuousScanning(t *testing.T) {
	// Continuous scanner (Ds = Ts): every event's matching PDU is heard as
	// soon as the scanner sits on its channel — worst case is bounded by
	// the channel cycle plus one advertising interval.
	cfg := BLE(20000, 128, 30000, 30000)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatalf("continuous 3-channel scanning must be deterministic (covered %v)", res.CoveredFraction)
	}
	cycle := timebase.Ticks(3) * cfg.Ts
	if res.WorstLatency > cycle+cfg.Ta {
		t.Errorf("worst %v exceeds cycle+Ta = %v", res.WorstLatency, cycle+cfg.Ta)
	}
	if res.WorstLatency <= cfg.Ta {
		t.Errorf("worst %v suspiciously below one advertising interval", res.WorstLatency)
	}
}

func TestThreeChannelCostsMoreThanOne(t *testing.T) {
	// At identical (Ta, Ts, Ds): a three-channel scanner spends two thirds
	// of its intervals on channels a given single-channel advertiser
	// never uses. Compare against a single-channel system with the same
	// parameters: multi-channel worst case must be larger.
	single := Config{Ta: 5100, Omega: 36, IFS: 0, Ts: 4000, Ds: 1000, Channels: 1}
	multi := Config{Ta: 5100, Omega: 36, IFS: 150, Ts: 4000, Ds: 1000, Channels: 3}
	rs, err := Analyze(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Analyze(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Deterministic {
		t.Skip("single-channel base case not deterministic for these params")
	}
	if rm.Deterministic && rm.WorstLatency <= rs.WorstLatency {
		t.Errorf("3-channel worst %v should exceed 1-channel %v", rm.WorstLatency, rs.WorstLatency)
	}
}

func TestBLEPresetAnalyzable(t *testing.T) {
	// A realistic background-scanning phone vs a beacon: adv 152.5 ms,
	// scan 30 ms per 300 ms interval, 3 channels.
	cfg := BLE(152500, 128, 300000, 30000)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Whether deterministic depends on the arithmetic relation between Ta
	// and 3·Ts; either way the analysis must produce sane numbers.
	if res.CoveredFraction <= 0 || res.CoveredFraction > 1 {
		t.Errorf("covered fraction %v", res.CoveredFraction)
	}
	if res.Deterministic && res.WorstLatency <= 0 {
		t.Error("deterministic but zero worst latency")
	}
}

func TestMeanBelowWorst(t *testing.T) {
	cfg := BLE(20000, 128, 30000, 30000)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Skip("not deterministic")
	}
	if res.MeanLatency <= 0 || res.MeanLatency >= float64(res.WorstLatency) {
		t.Errorf("mean %v not in (0, %v)", res.MeanLatency, res.WorstLatency)
	}
}

// branchCoverage returns branch j's covered fraction plus a per-tick
// coverage mask of the scanner circle, read off the per-branch reference
// sweep — the independent oracle for the coverage-weighting regression
// test below.
func branchCoverage(cfg Config, j int) (float64, []bool) {
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts
	var covered timebase.Ticks
	mask := make([]bool, circle)
	for _, seg := range referenceBranches(cfg)[j] {
		if seg.Count == 0 {
			continue
		}
		covered += seg.Iv.Len()
		for t := seg.Iv.Lo; t < seg.Iv.Lo+seg.Iv.Len(); t++ {
			mask[t.Mod(circle)] = true
		}
	}
	return float64(covered) / float64(circle), mask
}

// TestCoveredFractionWeighsAllBranches is the regression test for the
// starting-PDU coverage shortcut: CoveredFraction used to be read from the
// j == 0 branch alone, even though each starting PDU covers a different
// offset set. Over a full hyperperiod the branch sets are rotations of
// each other (so their measures coincide — verified below to document why
// the shortcut's number happened to agree), but the defined quantity is
// the entry-probability-weighted coverage over all branches, which is what
// Analyze must compute: Σ_j (gap_j/Ta)·covered_j/circle. The weighted form
// stays correct if the per-branch construction ever loses that rotation
// symmetry (truncated horizons, per-channel window lengths).
func TestCoveredFractionWeighsAllBranches(t *testing.T) {
	// Two channels, Ta == Ts: beacons stay phase-locked to the scan
	// cycle, so coverage is partial and the branch sets are visibly
	// distinct rotations.
	cfg := Config{Ta: 10, Omega: 2, IFS: 1, Ts: 10, Ds: 3, Channels: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pdus := referencePDUs(cfg)
	covs := make([]float64, cfg.Channels)
	masks := make([][]bool, cfg.Channels)
	var weighted float64
	var gapSum timebase.Ticks
	for j := range covs {
		covs[j], masks[j] = branchCoverage(cfg, j)
		gap := referenceGapBefore(cfg, pdus, j)
		gapSum += gap
		weighted += float64(gap) * covs[j]
	}
	weighted /= float64(cfg.Ta)
	if gapSum != cfg.Ta {
		t.Fatalf("gaps sum to %d, want Ta=%d", gapSum, cfg.Ta)
	}

	// The branches must genuinely differ as sets — otherwise the fixture
	// would not distinguish the weighted computation from any shortcut.
	if reflect.DeepEqual(masks[0], masks[1]) {
		t.Fatalf("fixture lost its point: branches cover identical offset sets %v", masks[0])
	}

	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("partially covered config reported deterministic")
	}
	if res.CoveredFraction <= 0 || res.CoveredFraction >= 1 {
		t.Fatalf("expected partial coverage, got %v", res.CoveredFraction)
	}
	if diff := res.CoveredFraction - weighted; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("CoveredFraction %v, want gap-weighted %v (branches %v)",
			res.CoveredFraction, weighted, covs)
	}
}

// TestBranchStatsConsistent: the per-branch breakdown must reassemble into
// the aggregate facts — entry probabilities sum to 1, the gap-weighted
// branch coverages give CoveredFraction, and for deterministic configs the
// worst branch worst equals WorstLatency and the entry-weighted branch
// means give MeanLatency.
func TestBranchStatsConsistent(t *testing.T) {
	for _, cfg := range []Config{
		BLE(20_000, 128, 30_000, 30_000),
		BLE(90_000, 128, 30_000, 3_000), // gappy
		{Ta: 5_000, Omega: 100, IFS: 50, Ts: 2_000, Ds: 700, Channels: 2},
	} {
		res, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Branches) != cfg.Channels {
			t.Fatalf("%d branches for %d channels", len(res.Branches), cfg.Channels)
		}
		var entrySum, covSum, meanSum float64
		var worst timebase.Ticks
		for j, br := range res.Branches {
			if br.PDU != j {
				t.Fatalf("branch %d labeled PDU %d", j, br.PDU)
			}
			entrySum += br.EntryProb
			covSum += br.EntryProb * br.Covered
			meanSum += br.EntryProb * br.Mean
			if br.Worst > worst {
				worst = br.Worst
			}
		}
		if diff := entrySum - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("entry probabilities sum to %v", entrySum)
		}
		if diff := covSum - res.CoveredFraction; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("gap-weighted branch coverage %v vs CoveredFraction %v", covSum, res.CoveredFraction)
		}
		if res.Deterministic {
			if worst != res.WorstLatency {
				t.Errorf("max branch worst %d vs WorstLatency %d", worst, res.WorstLatency)
			}
			if diff := (meanSum - res.MeanLatency) / res.MeanLatency; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("entry-weighted branch means %v vs MeanLatency %v", meanSum, res.MeanLatency)
			}
		}
	}
}

// TestTableSizeMatchesTable: the entry count AnalyzeWithTableSize reports
// is the size of coverage's channel table of the layout, one entry per
// channel on each of its segments, which tile the scanner's channel cycle
// from 0.
func TestTableSizeMatchesTable(t *testing.T) {
	for _, cfg := range []Config{
		BLE(20000, 128, 30000, 30000),
		BLE(100000, 128, 60000, 10000),
		{Ta: 31, Omega: 2, IFS: 1, Ts: 7, Ds: 3, Channels: 4},
		{Ta: 9, Omega: 1, IFS: 0, Ts: 5, Ds: 1, Channels: 1},
	} {
		_, n, err := AnalyzeWithTableSize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := coverage.NewChannelTable(cfg.Schedules())
		if err != nil {
			t.Fatal(err)
		}
		segs := len(tab.Bounds)
		if tab.Bounds[0] != 0 || tab.Bounds[segs-1] >= timebase.Ticks(cfg.Channels)*cfg.Ts {
			t.Fatalf("%+v: the segments start at %d and %d", cfg, tab.Bounds[0], tab.Bounds[segs-1])
		}
		if n != len(tab.Delay) || n != len(tab.Index) || n != segs*cfg.Channels {
			t.Fatalf("%+v: analysis counts %d entries, table has %d over %d segments", cfg, n, len(tab.Delay), segs)
		}
	}
}

// TestHyperperiodPastBeaconCapRefused: Ta = 1,000,003 and Ts = 999,983 on
// three channels put 8,999,847 PDUs in one hyperperiod, past coverage's
// 2^22-beacon horizon. Analyze returns coverage's cap error without laying
// out a single sweep item.
func TestHyperperiodPastBeaconCapRefused(t *testing.T) {
	cfg := BLE(1_000_003, 128, 999_983, 30_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Analyze(cfg)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "spans more than 4194304 beacons") {
		t.Fatalf("want the beacon cap's error, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing allocated %d bytes", alloc)
	}
}
