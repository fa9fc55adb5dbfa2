package coverage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/interval"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// referenceAnalyze is the Analyze that swept every starting beacon
// separately: it rebuilds and sweeps the horizon's items once per start,
// binary-searches the minimal prefix with a sweep per step, and sweeps
// again to classify the prefix and to count multiplicities. It stays here
// as the reference that the one-sweep Analyze must match field for field.
func referenceAnalyze(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (Result, error) {
	if err := b.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if b.Empty() {
		return Result{}, errors.New("coverage: beacon sequence is empty")
	}
	if c.Empty() {
		return Result{}, errors.New("coverage: window sequence is empty")
	}

	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return Result{}, err
	}

	horizon, _, err := horizonBeacons(b, c.Period, opt)
	if err != nil {
		return Result{}, err
	}

	gaps := b.Gaps()
	mB := b.MB()

	var res Result

	// Pass 1: start at beacon 0; determine determinism, minimal prefix,
	// and the label sweep reused for multiplicity.
	items0, times0 := coverageItems(b, windows, c.Period, 0, horizon)
	segs, covered := interval.SweepMin(c.Period, items0)
	res.Deterministic = covered
	res.CoveredFraction = coveredFraction(segs, c.Period)
	if !covered {
		res.MinMultiplicity, res.MaxMultiplicity = multiplicityPerPeriod(b, windows, c.Period)
		return res, nil
	}

	res.MinimalPrefix = minimalPrefix(c.Period, items0, times0)

	prefixItems := items0[:prefixItemCount(items0, times0, res.MinimalPrefix)]
	res.Redundant, res.Disjoint = classifyPrefix(prefixItems, c.Period)
	res.MinMultiplicity, res.MaxMultiplicity = multiplicityPerPeriod(b, windows, c.Period)

	// Pass 2: worst and mean latency over every starting beacon j.
	extra := timebase.Ticks(0)
	if opt.CountLastPacket {
		extra = maxOmega(b)
	}
	var worst timebase.Ticks
	var worstPacket timebase.Ticks
	var meanNum float64
	for j := 0; j < mB; j++ {
		items, _ := coverageItems(b, windows, c.Period, j, horizon)
		sj, cov := interval.SweepMin(c.Period, items)
		if !cov {
			return res, fmt.Errorf("coverage: start beacon %d does not achieve coverage although beacon 0 does", j)
		}
		var lMax timebase.Ticks
		var lSum float64
		for _, seg := range sj {
			l := timebase.Ticks(seg.Label) + extra
			if l > lMax {
				lMax = l
			}
			lSum += float64(l) * float64(seg.Iv.Len())
		}
		gapBefore := gaps[(j-1+mB)%mB]
		if lMax > worstPacket {
			worstPacket = lMax
		}
		if gapBefore+lMax > worst {
			worst = gapBefore + lMax
		}
		lMean := lSum / float64(c.Period)
		meanNum += float64(gapBefore) * (lMean + float64(gapBefore)/2)
	}
	res.WorstPacketLatency = worstPacket
	res.WorstLatency = worst
	res.MeanLatency = meanNum / float64(b.Period)
	return res, nil
}

// minimalPrefix finds the smallest number of beacons whose union covers the
// circle, assuming the full item list does cover it.
func minimalPrefix(tc timebase.Ticks, items []interval.Labeled, delays []timebase.Ticks) int {
	lo, hi := 1, len(delays)
	for lo < hi {
		mid := (lo + hi) / 2
		n := prefixItemCount(items, delays, mid)
		if _, cov := interval.SweepMin(tc, items[:n]); cov {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// prefixItemCount returns how many leading items belong to the first m
// beacons. Items are emitted beacon-major by coverageItems.
func prefixItemCount(items []interval.Labeled, delays []timebase.Ticks, m int) int {
	if len(delays) == 0 {
		return 0
	}
	perBeacon := len(items) / len(delays)
	n := m * perBeacon
	if n > len(items) {
		n = len(items)
	}
	return n
}

func classifyPrefix(items []interval.Labeled, tc timebase.Ticks) (redundant, disjoint bool) {
	if len(items) == 0 {
		return false, true
	}
	segs, _ := interval.SweepMin(tc, items)
	disjoint = true
	for _, seg := range segs {
		if seg.Count > 1 {
			redundant = true
			disjoint = false
		}
	}
	return redundant, disjoint
}

// multiplicityPerPeriod reports min/max, over offsets, of the number of
// beacons within one beacon period TB whose image covers the offset.
func multiplicityPerPeriod(b schedule.BeaconSeq, windows []schedule.Window, tc timebase.Ticks) (minM, maxM int) {
	items := make([]interval.Labeled, 0, b.MB()*len(windows))
	first := b.Beacons[0].Time
	for _, bc := range b.Beacons {
		delay := bc.Time - first
		for _, w := range windows {
			items = append(items, interval.Labeled{Lo: w.Start - delay, Length: w.Len, Label: int64(delay)})
		}
	}
	segs, _ := interval.SweepMin(tc, items)
	minM = math.MaxInt
	for _, seg := range segs {
		if seg.Count < minM {
			minM = seg.Count
		}
		if seg.Count > maxM {
			maxM = seg.Count
		}
	}
	if minM == math.MaxInt {
		minM = 0
	}
	return minM, maxM
}

// coverageItems builds the labeled intervals for a beacon sequence starting
// at beacon startIdx: one item per (beacon, window) pair, labeled with the
// packet-to-packet delay τi − τstart. It also returns the per-beacon delays.
func coverageItems(b schedule.BeaconSeq, windows []schedule.Window, tc timebase.Ticks, startIdx int, horizon int) ([]interval.Labeled, []timebase.Ticks) {
	first := b.Beacons[startIdx].Time
	end := first + timebase.CeilDiv(timebase.Ticks(horizon), timebase.Ticks(b.MB()))*b.Period + b.Period
	beacons := b.BeaconsWithin(first, end)
	if len(beacons) > horizon {
		beacons = beacons[:horizon]
	}
	items := make([]interval.Labeled, 0, len(beacons)*len(windows))
	delays := make([]timebase.Ticks, len(beacons))
	for i, bc := range beacons {
		delay := bc.Time - first
		delays[i] = delay
		for _, w := range windows {
			items = append(items, interval.Labeled{
				Lo:     w.Start - delay,
				Length: w.Len,
				Label:  int64(delay),
			})
		}
	}
	return items, delays
}

// referenceQWorstLatency is the QWorstLatency that swept every starting
// beacon separately, over q hyperperiods of its beacons: one
// interval.SweepKth per start. It stays here as the reference that the
// one-sweep QWorstLatency must match.
func referenceQWorstLatency(b schedule.BeaconSeq, c schedule.WindowSeq, q int, opt Options) (timebase.Ticks, bool, error) {
	if q < 1 {
		return 0, false, fmt.Errorf("coverage: q=%d must be ≥ 1", q)
	}
	if err := b.Validate(); err != nil {
		return 0, false, err
	}
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if b.Empty() || c.Empty() {
		return 0, false, errors.New("coverage: empty sequence")
	}
	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return 0, false, err
	}
	// The horizon must span q coverings: q hyperperiods always suffice
	// (each hyperperiod repeats the full image set). An explicit
	// MaxBeacons cap is honored verbatim.
	horizon, _, err := horizonBeacons(b, c.Period, opt)
	if err != nil {
		return 0, false, err
	}
	if opt.MaxBeacons == 0 {
		horizon *= q
	}
	gaps := b.Gaps()
	mB := b.MB()
	var worst timebase.Ticks
	for j := 0; j < mB; j++ {
		items, _ := coverageItems(b, windows, c.Period, j, horizon)
		segs, cov := interval.SweepKth(c.Period, items, q)
		if !cov {
			return 0, false, nil
		}
		var lMax timebase.Ticks
		for _, seg := range segs {
			if l := timebase.Ticks(seg.Label); l > lMax {
				lMax = l
			}
		}
		if l := gaps[(j-1+mB)%mB] + lMax; l > worst {
			worst = l
		}
	}
	return worst, true, nil
}

func coveredFraction(segs []interval.Segment, period timebase.Ticks) float64 {
	var covered timebase.Ticks
	for _, seg := range segs {
		if seg.Count > 0 {
			covered += seg.Iv.Len()
		}
	}
	return float64(covered) / float64(period)
}

// checkAgainstReference requires Analyze and referenceAnalyze to return
// the same Result, compared with ==, so MeanLatency must match to the bit,
// and the same error.
func checkAgainstReference(t *testing.T, b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (Result, error) {
	t.Helper()
	got, gotErr := Analyze(b, c, opt)
	want, wantErr := referenceAnalyze(b, c, opt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("B=%+v C=%+v opt=%+v: error %v, reference %v", b, c, opt, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("B=%+v C=%+v opt=%+v:\n got %+v\nwant %+v", b, c, opt, got, want)
	}
	return got, gotErr
}

// randomWindows draws 1–4 disjoint, non-adjacent windows in [0, tc).
func randomWindows(rng *rand.Rand, tc timebase.Ticks) []schedule.Window {
	var ws []schedule.Window
	pos := timebase.Ticks(0)
	for n := 1 + rng.Intn(4); len(ws) < n; {
		start := pos + timebase.Ticks(rng.Intn(int(tc)/3+1))
		length := 1 + timebase.Ticks(rng.Intn(int(tc)/3+1))
		if start+length > tc {
			break
		}
		ws = append(ws, schedule.Window{Start: start, Len: length})
		pos = start + length + 1
	}
	if len(ws) == 0 {
		ws = append(ws, schedule.Window{Start: 0, Len: 1 + tc/4})
	}
	return ws
}

// randomBeacons draws 1–5 non-overlapping beacons of airtime omega in
// [0, tb).
func randomBeacons(rng *rand.Rand, tb, omega timebase.Ticks) []timebase.Ticks {
	var times []timebase.Ticks
	pos := timebase.Ticks(0)
	for n := 1 + rng.Intn(5); len(times) < n; {
		at := pos + timebase.Ticks(rng.Intn(int(tb)/3+1))
		if at+omega > tb {
			break
		}
		times = append(times, at)
		pos = at + omega
	}
	if len(times) == 0 {
		times = append(times, 0)
	}
	return times
}

// randomPair draws a pair whose periods are commensurate (either one a
// multiple of the other) or unrelated, or an optimal one-way pair of
// Section 5.1, whose images tile the circle, perhaps with the perturbed
// sender.
func randomPair(t *testing.T, rng *rand.Rand) (schedule.BeaconSeq, schedule.WindowSeq) {
	omega := timebase.Ticks(1 + rng.Intn(3))
	tc := timebase.Ticks(8 + rng.Intn(90))
	var tb timebase.Ticks
	switch rng.Intn(5) {
	case 0: // TB a multiple of TC
		tb = tc * timebase.Ticks(1+rng.Intn(4))
	case 1: // TC a multiple of TB
		tb = timebase.Ticks(max(4, int(tc)/(1+rng.Intn(3))))
		tc = tb * timebase.Ticks(1+rng.Intn(3))
	case 2: // images drift across the hyperperiod
		tb = timebase.Ticks(8 + rng.Intn(120))
	default:
		d := omega + 1 + timebase.Ticks(rng.Intn(10))
		u, err := optimal.NewUnidirectional(omega, d, 2+rng.Intn(4), 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) > 0 {
			return u.Sender, u.Listener
		}
		perturbed, err := optimal.PerturbedBeacons(omega, d, u.K)
		if err != nil {
			t.Fatal(err)
		}
		return perturbed, u.Listener
	}
	c, err := schedule.NewWindowsAt(randomWindows(rng, tc), tc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.NewBeaconsAt(randomBeacons(rng, tb, omega), omega, tb)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

// TestAnalyzeMatchesReference drives Analyze and the per-start reference
// over random pairs with commensurate and incommensurate periods,
// multi-window listeners, CountLastPacket, TruncatedWindows, and
// MaxBeacons caps above and below mB, and requires identical results.
// It also counts the kinds of outcome it reached, so a generator that
// stops producing one of them fails the test.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var deterministic, disjoint, startErrors, capsBelow, capsAbove, multiWindow int
	for trial := 0; trial < 6000; trial++ {
		b, c := randomPair(t, rng)
		opt := Options{CountLastPacket: rng.Intn(3) == 0, TruncatedWindows: rng.Intn(4) == 0}
		switch rng.Intn(3) {
		case 0:
			opt.MaxBeacons = 1 + rng.Intn(b.MB())
			if opt.MaxBeacons < b.MB() {
				capsBelow++
			}
		case 1:
			opt.MaxBeacons = b.MB() + 1 + rng.Intn(40)
			capsAbove++
		}
		if c.NC() > 1 {
			multiWindow++
		}
		res, err := checkAgainstReference(t, b, c, opt)
		switch {
		case err != nil && res.Deterministic:
			startErrors++
		case res.Deterministic:
			deterministic++
			if res.Disjoint {
				disjoint++
			}
		}
	}
	t.Logf("deterministic %d (disjoint %d), start errors %d, caps below mB %d, above %d, multi-window %d",
		deterministic, disjoint, startErrors, capsBelow, capsAbove, multiWindow)
	if deterministic < 500 || disjoint < 100 || deterministic-disjoint < 100 || startErrors < 5 ||
		capsBelow < 200 || capsAbove < 500 || multiWindow < 500 {
		t.Error("random pairs no longer reach every kind of outcome")
	}
}

// TestAnalyzeStartBeaconErrorMatchesReference: with MaxBeacons = 2,
// beacons 0 and 1 tile the circle but beacons 1 and 2 leave [20, 30)
// uncovered, so start beacon 1 fails while beacon 0 succeeds.
func TestAnalyzeStartBeaconErrorMatchesReference(t *testing.T) {
	c, err := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 20}}, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.NewBeaconsAt([]timebase.Ticks{0, 20, 30}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := checkAgainstReference(t, b, c, Options{MaxBeacons: 2})
	if err == nil || !res.Deterministic || res.MinimalPrefix != 2 {
		t.Fatalf("want start beacon 1's error after a deterministic beacon 0, got %+v, %v", res, err)
	}
}

// TestQWorstLatencyMatchesReference drives QWorstLatency and the per-start
// SweepKth reference over random pairs for q from 1 to 4, with MaxBeacons
// caps below and above mB and truncated windows, and requires the same
// latency, coverage verdict and error. It counts the outcomes it reached,
// so a generator that stops producing covered, uncovered or capped pairs
// fails the test.
func TestQWorstLatencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var covered, uncovered, capsBelow, capsAbove, truncated, wrapped int
	for trial := 0; trial < 4000; trial++ {
		b, c := randomPair(t, rng)
		q := 1 + rng.Intn(4)
		opt := Options{TruncatedWindows: rng.Intn(4) == 0}
		switch rng.Intn(3) {
		case 0:
			opt.MaxBeacons = 1 + rng.Intn(b.MB())
			if opt.MaxBeacons < b.MB() {
				capsBelow++
			}
		case 1:
			opt.MaxBeacons = b.MB() + 1 + rng.Intn(40)
			capsAbove++
		}
		got, gotOK, gotErr := QWorstLatency(b, c, q, opt)
		want, wantOK, wantErr := referenceQWorstLatency(b, c, q, opt)
		if got != want || gotOK != wantOK || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("B=%+v C=%+v q=%d opt=%+v: (%d, %v, %v), reference (%d, %v, %v)",
				b, c, q, opt, got, gotOK, gotErr, want, wantOK, wantErr)
		}
		switch {
		case gotErr != nil:
		case gotOK:
			covered++
			if opt.TruncatedWindows {
				truncated++
			}
			if _, hyper, _ := horizonBeacons(b, c.Period, opt); hyper > 0 && q > 1 {
				wrapped++
			}
		default:
			uncovered++
		}
	}
	t.Logf("covered %d (truncated %d, q > 1 over a hyperperiod %d), uncovered %d, caps below mB %d, above %d",
		covered, truncated, wrapped, uncovered, capsBelow, capsAbove)
	if covered < 1000 || uncovered < 500 || truncated < 100 || wrapped < 300 || capsBelow < 200 || capsAbove < 500 {
		t.Error("random pairs no longer reach every kind of outcome")
	}
}

// encodePair writes a schedule pair in the fuzz input format read by
// decodePair.
func encodePair(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) []byte {
	var flags byte
	if opt.CountLastPacket {
		flags |= 1
	}
	if opt.TruncatedWindows {
		flags |= 2
	}
	out := []byte{flags}
	put := func(v timebase.Ticks) { out = binary.AppendUvarint(out, uint64(v)) }
	put(timebase.Ticks(opt.MaxBeacons))
	put(b.Period)
	put(timebase.Ticks(b.MB()))
	end := timebase.Ticks(0)
	for _, bc := range b.Beacons {
		put(bc.Time - end)
		put(bc.Len)
		end = bc.End()
	}
	put(c.Period)
	put(timebase.Ticks(c.NC()))
	end = 0
	for _, w := range c.Windows {
		put(w.Start - end)
		put(w.Len)
		end = w.End()
	}
	return out
}

// decodePair reads a flags byte (bit 0 CountLastPacket, bit 1
// TruncatedWindows) and then uvarints: MaxBeacons, TB, the beacon count,
// a (gap after the previous beacon's end, airtime) pair per beacon, TC,
// the window count and a (gap, length) pair per window. ok is false for
// input that is malformed, invalid as a schedule, or too large to analyze
// quickly by the per-start reference.
func decodePair(data []byte) (b schedule.BeaconSeq, c schedule.WindowSeq, opt Options, ok bool) {
	if len(data) == 0 {
		return b, c, opt, false
	}
	opt.CountLastPacket = data[0]&1 != 0
	opt.TruncatedWindows = data[0]&2 != 0
	data = data[1:]
	get := func(limit uint64) timebase.Ticks {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > limit {
			ok = false
			return 0
		}
		data = data[n:]
		return timebase.Ticks(v)
	}
	const maxPeriod, maxCount = 1 << 12, 16
	ok = true
	opt.MaxBeacons = int(get(64))
	b.Period = get(maxPeriod)
	b.Beacons = make([]schedule.Beacon, get(maxCount))
	end := timebase.Ticks(0)
	for i := range b.Beacons {
		b.Beacons[i].Time = end + get(maxPeriod)
		b.Beacons[i].Len = get(maxPeriod)
		end = b.Beacons[i].End()
	}
	c.Period = get(maxPeriod)
	c.Windows = make([]schedule.Window, get(maxCount))
	end = 0
	for i := range c.Windows {
		c.Windows[i].Start = end + get(maxPeriod)
		c.Windows[i].Len = get(maxPeriod)
		end = c.Windows[i].End()
	}
	if !ok || b.Validate() != nil || c.Validate() != nil || b.Empty() || c.Empty() {
		return b, c, opt, false
	}
	// The reference sweeps horizon·nC items once per starting beacon.
	horizon, _, err := horizonBeacons(b, c.Period, opt)
	return b, c, opt, err == nil && horizon*c.NC()*b.MB() <= 1<<16
}

// FuzzAnalyzeMatchesReference: Analyze agrees with the per-start reference
// on any pair the fuzzer can encode. The seeds are the paper's optimal
// one-way pairs (Section 5.1, a tiling and a perturbed sender) and the
// Disco and U-Connect schedules, half- and full-duplex.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	for _, km := range [][2]int{{4, 1}, {3, 2}} {
		u, err := optimal.NewUnidirectional(2, 10, km[0], km[1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodePair(u.Sender, u.Listener, Options{}))
		f.Add(encodePair(u.Sender, u.Listener, Options{CountLastPacket: true, MaxBeacons: km[0] - 1}))
		perturbed, err := optimal.PerturbedBeacons(2, 10, km[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodePair(perturbed, u.Listener, Options{}))
	}
	disco, err := protocols.NewDisco(3, 5, 10, 2)
	if err != nil {
		f.Fatal(err)
	}
	uconnect, err := protocols.NewUConnect(3, 10, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, sl := range []*protocols.Slotted{disco, uconnect} {
		half, err := sl.Device()
		if err != nil {
			f.Fatal(err)
		}
		full, err := sl.DeviceFullDuplex()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodePair(half.B, half.C, Options{}))
		f.Add(encodePair(full.B, full.C, Options{}))
		f.Add(encodePair(full.B, full.C, Options{TruncatedWindows: true, MaxBeacons: 5}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, c, opt, ok := decodePair(data)
		if !ok {
			return
		}
		checkAgainstReference(t, b, c, opt)
	})
}
