package multichannel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/coverage"
	"repro/internal/interval"
	"repro/internal/timebase"
)

// referencePDU is one advertising PDU within the repeating event.
type referencePDU struct {
	channel int
	offset  timebase.Ticks // start relative to the event start
}

// referencePDUs lays out the PDUs of one advertising event.
func referencePDUs(cfg Config) []referencePDU {
	pdus := make([]referencePDU, cfg.Channels)
	for i := range pdus {
		pdus[i] = referencePDU{channel: i, offset: timebase.Ticks(i) * (cfg.Omega + cfg.IFS)}
	}
	return pdus
}

// referenceGapBefore returns the transmission gap preceding PDU j (start
// to start), across the event boundary for j == 0.
func referenceGapBefore(cfg Config, pdus []referencePDU, j int) timebase.Ticks {
	if j > 0 {
		return pdus[j].offset - pdus[j-1].offset
	}
	return cfg.Ta - pdus[len(pdus)-1].offset
}

// referenceBranches sweeps every branch j, range entry just before PDU j,
// over the scanner's channel cycle: every PDU from PDU j on, over one
// hyperperiod of advertiser and scanner plus one event, contributes one
// offset interval labeled with its delay after PDU j. It is the per-branch
// construction Analyze used before it read coverage's one sweep.
func referenceBranches(cfg Config) [][]interval.Segment {
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts
	winStart := func(ch int) timebase.Ticks {
		return timebase.Ticks(ch)*cfg.Ts + cfg.Ts - cfg.Ds
	}
	hyper := timebase.LCM(cfg.Ta, circle)
	events := int(hyper / cfg.Ta)
	pdus := referencePDUs(cfg)
	branches := make([][]interval.Segment, cfg.Channels)
	for j := range branches {
		var items []interval.Labeled
		start := pdus[j].offset
		for e := 0; e < events+1; e++ {
			for _, p := range pdus {
				at := timebase.Ticks(e)*cfg.Ta + p.offset
				if at < start {
					continue
				}
				delay := at - start
				items = append(items, interval.Labeled{
					Lo:     winStart(p.channel) - delay,
					Length: cfg.Ds,
					Label:  int64(delay),
				})
			}
		}
		branches[j], _ = interval.SweepMin(circle, items)
	}
	return branches
}

// referenceAnalyze is Analyze as it was before it read coverage's sweep:
// one SweepMin per branch, folded with float sums in segment order. Those
// sums are exact, and so equal Analyze's integer ones, while every partial
// sum stays below 2^53, which the configurations here keep.
func referenceAnalyze(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts
	pdus := referencePDUs(cfg)
	var (
		worst     timebase.Ticks
		meanNum   float64
		coveredOK = true
		coveredW  float64
		branches  = make([]Branch, 0, cfg.Channels)
	)
	for j, segs := range referenceBranches(cfg) {
		var lMax timebase.Ticks
		var lSum float64
		var covSum timebase.Ticks
		for _, seg := range segs {
			if seg.Count == 0 {
				continue
			}
			covSum += seg.Iv.Len()
			if l := timebase.Ticks(seg.Label); l > lMax {
				lMax = l
			}
			lSum += float64(seg.Label) * float64(seg.Iv.Len())
		}
		cov := covSum == circle
		if !cov {
			coveredOK = false
		}
		gapBefore := referenceGapBefore(cfg, pdus, j)
		coveredW += float64(gapBefore) * float64(covSum)
		br := Branch{
			PDU:       j,
			EntryProb: float64(gapBefore) / float64(cfg.Ta),
			Covered:   float64(covSum) / float64(circle),
		}
		if covSum > 0 {
			br.Worst = gapBefore + lMax
			br.Mean = lSum/float64(covSum) + float64(gapBefore)/2
		}
		branches = append(branches, br)
		if cov {
			if l := gapBefore + lMax; l > worst {
				worst = l
			}
			meanNum += float64(gapBefore) * (lSum/float64(circle) + float64(gapBefore)/2)
		}
	}
	res := Result{
		Deterministic:   coveredOK,
		CoveredFraction: coveredW / (float64(cfg.Ta) * float64(circle)),
		Branches:        branches,
	}
	if coveredOK {
		res.WorstLatency = worst
		res.MeanLatency = meanNum / float64(cfg.Ta)
	}
	return res, nil
}

// sameBits reports whether a and b are equal field for field, every float
// compared by its bits.
func sameBits(a, b Result) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Deterministic != b.Deterministic || !same(a.CoveredFraction, b.CoveredFraction) ||
		a.WorstLatency != b.WorstLatency || !same(a.MeanLatency, b.MeanLatency) || len(a.Branches) != len(b.Branches) {
		return false
	}
	for j, x := range a.Branches {
		y := b.Branches[j]
		if x.PDU != y.PDU || !same(x.EntryProb, y.EntryProb) || !same(x.Covered, y.Covered) ||
			x.Worst != y.Worst || !same(x.Mean, y.Mean) {
			return false
		}
	}
	return true
}

// checkAgainstReference requires Analyze and referenceAnalyze to return
// the same Result, floats by their bits, and the same error.
func checkAgainstReference(t *testing.T, cfg Config) Result {
	t.Helper()
	got, gotErr := Analyze(cfg)
	want, wantErr := referenceAnalyze(cfg)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v: error %v, reference %v", cfg, gotErr, wantErr)
	}
	if !sameBits(got, want) {
		t.Fatalf("%+v:\n got %+v\nwant %+v", cfg, got, want)
	}
	return got
}

// referenceFixtures are the BLE presets (fast, balanced, low-power) at one
// to three channels and two airtimes, and this package's test configs.
func referenceFixtures() []Config {
	var cfgs []Config
	for _, p := range [][3]timebase.Ticks{
		{20_000, 30_000, 30_000},
		{152_500, 300_000, 30_000},
		{1_022_500, 1_280_000, 11_250},
	} {
		for channels := 1; channels <= 3; channels++ {
			for _, omega := range []timebase.Ticks{128, 376} {
				cfg := BLE(p[0], omega, p[1], p[2])
				cfg.Channels = channels
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return append(cfgs,
		Config{Ta: 1700, Omega: 36, IFS: 0, Ts: 4000, Ds: 500, Channels: 1},
		Config{Ta: 5100, Omega: 36, IFS: 0, Ts: 4000, Ds: 1000, Channels: 1},
		Config{Ta: 5100, Omega: 36, IFS: 150, Ts: 4000, Ds: 1000, Channels: 3},
		BLE(90_000, 128, 30_000, 3_000),
		Config{Ta: 5_000, Omega: 100, IFS: 50, Ts: 2_000, Ds: 700, Channels: 2},
		Config{Ta: 10, Omega: 2, IFS: 1, Ts: 10, Ds: 3, Channels: 2},
		BLE(100000, 128, 60000, 10000),
		Config{Ta: 31, Omega: 2, IFS: 1, Ts: 7, Ds: 3, Channels: 4},
		Config{Ta: 9, Omega: 1, IFS: 0, Ts: 5, Ds: 1, Channels: 1},
	)
}

// randomConfig draws a small valid configuration of 1–4 channels: 1–8-tick
// PDUs, inter-frame spaces up to 5 ticks, scan intervals of 2–61 ticks and
// an advertising interval up to 150 ticks past the event, or in one case
// of three a multiple of the scan interval, which phase-locks advertiser
// and scanner and so often leaves offsets that never discover.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Channels: 1 + rng.Intn(4),
		Omega:    timebase.Ticks(1 + rng.Intn(8)),
		IFS:      timebase.Ticks(rng.Intn(6)),
		Ts:       timebase.Ticks(2 + rng.Intn(60)),
	}
	event := timebase.Ticks(cfg.Channels)*(cfg.Omega+cfg.IFS) - cfg.IFS
	cfg.Ta = event + 1 + timebase.Ticks(rng.Intn(150))
	if rng.Intn(3) == 0 {
		cfg.Ta = timebase.CeilDiv(cfg.Ta, cfg.Ts) * cfg.Ts
	}
	cfg.Ds = 1 + timebase.Ticks(rng.Intn(int(cfg.Ts)))
	return cfg
}

// TestAnalyzeMatchesReference requires Analyze, read off coverage's one
// sweep, to equal the per-branch reference on the fixtures and on random
// configurations of every channel count, deterministic or not. It counts
// what it reached, so a generator that stops producing one of them fails.
func TestAnalyzeMatchesReference(t *testing.T) {
	var deterministic, partial int
	var channels [5]int
	count := func(cfg Config, res Result) {
		channels[cfg.Channels]++
		if res.Deterministic {
			deterministic++
		} else {
			partial++
		}
	}
	fixtures := referenceFixtures()
	for _, cfg := range fixtures {
		count(cfg, checkAgainstReference(t, cfg))
	}
	rng := rand.New(rand.NewSource(22))
	for n := len(fixtures); n < 3000; n++ {
		cfg := randomConfig(rng)
		count(cfg, checkAgainstReference(t, cfg))
	}
	t.Logf("deterministic %d, partial %d, by channels %v", deterministic, partial, channels[1:])
	for c := 1; c <= 4; c++ {
		if channels[c] < 500 {
			t.Errorf("only %d configs have %d channels", channels[c], c)
		}
	}
	if deterministic < 500 || partial < 500 {
		t.Error("random configs no longer reach deterministic and partial coverage")
	}
}

// TestBranchMeansExactPast2To53 covers where the reference stops: a
// configuration whose per-branch Σ latency · length passes 2^53, so the
// reference's float sums round. Analyze's branch means must equal the
// exact sum, rounded once, over the covered measure, plus half the gap;
// the reference's differ from them.
func TestBranchMeansExactPast2To53(t *testing.T) {
	cfg := Config{Ta: 9_532_512, Omega: 128, IFS: 150, Ts: 9_023_696, Ds: 20_768, Channels: 3}
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, scan := cfg.Schedules()
	tab, err := coverage.NewChannelTable(adv, scan)
	if err != nil {
		t.Fatal(err)
	}
	n, gaps, past := cfg.Channels, adv.Gaps(), false
	for j, br := range res.Branches {
		sum, covered := new(big.Int), timebase.Ticks(0)
		for s, lo := range tab.Bounds {
			hi := scan[0].Period
			if s+1 < len(tab.Bounds) {
				hi = tab.Bounds[s+1]
			}
			if l := tab.Delay[s*n+j]; l >= 0 {
				sum.Add(sum, new(big.Int).Mul(big.NewInt(int64(l)), big.NewInt(int64(hi-lo))))
				covered += hi - lo
			}
		}
		past = past || sum.BitLen() > 53
		exact, _ := new(big.Float).SetInt(sum).Float64()
		if want := exact/float64(covered) + float64(gaps[(j-1+n)%n])/2; br.Mean != want {
			t.Errorf("branch %d: mean %v, exact %v", j, br.Mean, want)
		}
	}
	if !past {
		t.Fatal("no branch sum passes 2^53: the configuration no longer tests rounding")
	}
	if ref, _ := referenceAnalyze(cfg); sameBits(res, ref) {
		t.Error("the reference's float sums matched the exact ones: the configuration no longer shows them round")
	}
}

// decodeConfig reads a configuration from uvarints: channels (1–4), Omega,
// IFS, Ts, Ds and the advertising interval past the event. ok is false for
// malformed or invalid input, or one too large for the reference's float
// sums to stay exact or its per-branch sweeps to stay quick.
func decodeConfig(data []byte) (cfg Config, ok bool) {
	ok = true
	get := func(limit uint64) timebase.Ticks {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > limit {
			ok = false
			return 0
		}
		data = data[n:]
		return timebase.Ticks(v)
	}
	cfg.Channels = 1 + int(get(3))
	cfg.Omega = 1 + get(63)
	cfg.IFS = get(63)
	cfg.Ts = 1 + get(1023)
	cfg.Ds = 1 + get(1023)
	event := timebase.Ticks(cfg.Channels)*(cfg.Omega+cfg.IFS) - cfg.IFS
	cfg.Ta = event + 1 + get(4095)
	return cfg, ok && cfg.Validate() == nil
}

// FuzzMultichannelMatchesReference: Analyze agrees with the per-branch
// reference, floats by their bits, on any configuration the fuzzer can
// encode. The seeds are a continuous scanner, a gappy one, and four
// channels against a scan interval shorter than the event.
func FuzzMultichannelMatchesReference(f *testing.F) {
	put := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	f.Add(put(2, 127, 149, 299, 299, 100))
	f.Add(put(2, 7, 9, 511, 40, 400))
	f.Add(put(3, 1, 1, 6, 2, 20))
	f.Add(put(0, 3, 0, 96, 9, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ok := decodeConfig(data)
		if !ok {
			return
		}
		checkAgainstReference(t, cfg)
	})
}
