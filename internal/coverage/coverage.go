// Package coverage turns Section 4 of the paper into an executable,
// exact analysis engine for neighbor-discovery protocols.
//
// The paper's key construction is the coverage map (Section 4.1): for a
// beacon sequence B′ = b1, b2, … paired with an infinite periodic reception
// window sequence C∞, the set Ωi of initial offsets Φ1 ∈ [0, TC) for which
// beacon bi lands inside a reception window is the set of windows translated
// left by the accumulated beacon gaps (Equation 3). The tuple (B′, C∞) is
// deterministic iff ∪Ωi covers the circle [0, TC) (Definition 4.1), and the
// worst-case packet-to-packet latency l* is the maximum over offsets of the
// earliest covering beacon (Section 4.1, "Packet-to-packet discovery
// latency").
//
// This package computes all of that exactly, in integer ticks, with one
// interval sweep per analysis — no discretized offset loops. Analyze lays
// out the n beacon images of one hyperperiod lcm(TB, TC) once, sorts their
// endpoints once (interval.Sweeper's radix sort), and reads every starting
// beacon's worst and mean latency off the same s elementary segments: the
// sweep costs O(n·nC·(r + q)) for r radix passes and overlap depth q, and
// the per-start reading O(s·mB). The same engine therefore serves as the
// repository's reference "simulator" for two periodic devices: analyses
// are exact rather than sampled. A deliberately naive brute-force
// evaluator is provided for cross-validation and for the ablation
// benchmark.
package coverage

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// Options control the analysis.
type Options struct {
	// MaxBeacons caps the number of beacons examined per starting position
	// before the pair is declared non-deterministic. Zero means "one full
	// hyperperiod", which is exact for periodic pairs: beacon images on the
	// circle repeat after lcm(TB, TC), so a pair that has not achieved
	// coverage within the hyperperiod never will.
	MaxBeacons int

	// CountLastPacket adds the airtime ω of the successful packet to all
	// reported latencies (Appendix A.4). The paper neglects it; enabling
	// this reproduces the "+ω" variants of the bounds.
	CountLastPacket bool

	// TruncatedWindows models the fact that a packet must start no later
	// than ω before the end of a reception window to be received in full
	// (Section 3.2, Appendix A.3): each window's useful length shrinks by
	// the packet airtime.
	TruncatedWindows bool
}

// Result is the outcome of analyzing a (B∞, C∞) pair.
type Result struct {
	// Deterministic reports whether every initial offset leads to discovery
	// (Definition 4.1).
	Deterministic bool

	// CoveredFraction is the fraction of offsets in [0, TC) covered at
	// least once; 1.0 for deterministic pairs.
	CoveredFraction float64

	// WorstLatency is the supremum of the discovery latency over all
	// initial conditions, measured from the instant both devices come into
	// range (Definition 3.4): the largest beacon gap preceding a first
	// in-range beacon plus that beacon's worst packet-to-packet latency.
	// Valid only if Deterministic.
	WorstLatency timebase.Ticks

	// WorstPacketLatency is the worst l*: latency measured from the first
	// beacon in range to the successful one (start-to-start unless
	// Options.CountLastPacket). Valid only if Deterministic.
	WorstPacketLatency timebase.Ticks

	// MeanLatency is the expected discovery latency for a uniformly random
	// range-entry instant and independent uniform offset Φ1, in ticks.
	// Valid only if Deterministic.
	MeanLatency float64

	// MinimalPrefix is the paper's M for this pair: the number of beacons,
	// starting from beacon 0, needed before all offsets are covered.
	// Valid only if Deterministic.
	MinimalPrefix int

	// Redundant and Disjoint classify the minimal deterministic prefix per
	// Definition 4.2: redundant iff some offset is covered by more than one
	// of its beacons.
	Redundant bool
	Disjoint  bool

	// MinMultiplicity and MaxMultiplicity are the extremes, over offsets,
	// of how many beacons of one beacon period cover the offset. For the
	// optimal constructions (where TB is a multiple of TC) these equal the
	// redundancy degree: 1/1 for disjoint-optimal, Q/Q+1 for Appendix-B
	// schedules.
	MinMultiplicity, MaxMultiplicity int
}

// Analyze performs exact coverage analysis of the pair (b, c): device E runs
// the beacon sequence b, device F the reception window sequence c, and we
// measure F discovering E.
//
// Every Result field comes from one sweep of beacon 0's images. By
// Equation 3 starting beacon j's images are beacon 0's shifted by its
// delay τj, and a shift of the circle changes neither the worst nor the
// mean latency over it. So at an offset covered by beacons with delays
// l1 < l2 < …, start j discovers with the first delay ≥ τj, and past the
// last one with l1 plus the hyperperiod, after which the images repeat. A
// capped horizon cuts that repetition, so the sweep then lists the mB−1
// beacons the later starts reach beyond it instead.
func Analyze(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (Result, error) {
	res, _, err := AnalyzeWithTableSize(b, c, opt)
	return res, err
}

// AnalyzeWithTableSize is Analyze that also returns the entry count of the
// pair's latency table (NewTable): one entry per starting beacon on each
// elementary segment of the sweep. The count is 0 when NewTable refuses
// the pair, or when opt truncates the windows, which the table does not
// model. Counting costs nothing beyond the sweep Analyze runs anyway, so a
// caller can decide whether a table pays before building one.
func AnalyzeWithTableSize(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (Result, int, error) {
	s, err := newPairSweep(b, c, opt)
	if err != nil {
		return Result{}, 0, err
	}
	mB := s.mB
	var (
		uncovered  timebase.Ticks
		segments   int
		minM, maxM = math.MaxInt, 0
		lastFirst  int64                        // latest first-covering delay from beacon 0
		minSecond  = int64(math.MaxInt64)       // earliest second-covering delay
		lMax       = make([]int64, mB)          // per start: worst packet latency
		lSum       = make([]uint128, mB)        // per start: Σ latency · segment length
		failed     = mB                         // first start that leaves an offset uncovered
		horizonEnd = int64(s.delays[s.horizon]) // beacon 0's horizon
	)
	var sweep interval.Sweeper
	sweep.Sweep(c.Period, s.items, func(iv interval.Interval, labels []int64) {
		segments++
		// The beacons of one period have delays below TB.
		m := 0
		for m < len(labels) && labels[m] < int64(b.Period) {
			m++
		}
		minM, maxM = min(minM, m), max(maxM, m)
		if len(labels) == 0 || labels[0] >= horizonEnd {
			uncovered += iv.Len()
			return
		}
		lastFirst = max(lastFirst, labels[0])
		if len(labels) > 1 {
			minSecond = min(minSecond, labels[1])
		}
		if uncovered > 0 {
			return // not deterministic: latencies are not reported
		}
		length, p := uint64(iv.Len()), 0
		for j := 0; j < mB; j++ {
			first, ok := s.first(labels, j, &p)
			if !ok {
				failed = min(failed, j)
				continue
			}
			l := first - int64(s.delays[j])
			lMax[j] = max(lMax[j], l)
			lSum[j].addMul(uint64(l), length)
		}
	})
	entries := 0
	if s.hyper > 0 && !opt.TruncatedWindows {
		entries = segments * mB
	}

	res := Result{
		Deterministic:   uncovered == 0,
		CoveredFraction: float64(c.Period-uncovered) / float64(c.Period),
		MinMultiplicity: minM,
		MaxMultiplicity: maxM,
	}
	if !res.Deterministic {
		// Redundant/Disjoint are properties of a deterministic prefix
		// (Definition 4.2) and stay false for non-deterministic pairs.
		return res, entries, nil
	}
	// The minimal deterministic prefix ends with the latest first-covering
	// beacon; it is redundant iff a second beacon within it covers some
	// offset.
	last, _ := slices.BinarySearch(s.delays, timebase.Ticks(lastFirst))
	res.MinimalPrefix = last + 1
	res.Redundant = minSecond < int64(s.delays[last+1])
	res.Disjoint = !res.Redundant
	if failed < mB {
		return res, entries, fmt.Errorf("coverage: start beacon %d does not achieve coverage although beacon 0 does", failed)
	}

	// Worst and mean latency over every starting beacon j. The entry
	// instant falls in the gap before beacon j (length gaps[j-1]), and Φ1
	// is independent of it.
	extra := timebase.Ticks(0)
	if opt.CountLastPacket {
		extra = maxOmega(b)
	}
	gaps := b.Gaps()
	var worst timebase.Ticks
	var worstPacket timebase.Ticks
	var meanNum float64 // Σ_j λ_{j-1} · (E_Φ[l*_j] + λ_{j-1}/2)
	for j := 0; j < mB; j++ {
		l := timebase.Ticks(lMax[j]) + extra
		lSum[j].addMul(uint64(extra), uint64(c.Period))
		gapBefore := gaps[(j-1+mB)%mB]
		worstPacket = max(worstPacket, l)
		worst = max(worst, gapBefore+l)
		lMean := lSum[j].float64() / float64(c.Period)
		meanNum += float64(gapBefore) * (lMean + float64(gapBefore)/2)
	}
	res.WorstPacketLatency = worstPacket
	res.WorstLatency = worst
	res.MeanLatency = meanNum / float64(b.Period)
	return res, entries, nil
}

// pairSweep is the sweep Analyze and NewTable share: beacon 0's images on
// the circle [0, TC), one item per (beacon, useful window), each labeled
// with its beacon's delay after beacon 0.
type pairSweep struct {
	mB      int
	horizon int              // beacons each start examines
	hyper   timebase.Ticks   // the hyperperiod when horizon spans one, else 0
	delays  []timebase.Ticks // delays[i]: beacon i's delay after beacon 0
	items   []interval.Labeled
}

// newPairSweep validates the pair and lays out its sweep items: the
// horizon's beacons, plus the mB−1 that later starts reach past a capped
// horizon.
func newPairSweep(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (pairSweep, error) {
	if err := b.Validate(); err != nil {
		return pairSweep{}, err
	}
	if err := c.Validate(); err != nil {
		return pairSweep{}, err
	}
	if b.Empty() {
		return pairSweep{}, errors.New("coverage: beacon sequence is empty")
	}
	if c.Empty() {
		return pairSweep{}, errors.New("coverage: window sequence is empty")
	}
	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return pairSweep{}, err
	}
	s := pairSweep{mB: b.MB()}
	s.horizon, s.hyper = horizonBeacons(b, c, opt)
	// Start j examines beacons j … j+horizon−1.
	s.delays = beaconDelays(b, s.horizon+s.mB)
	listed := s.horizon
	if s.hyper == 0 {
		listed += s.mB - 1
	}
	s.items = make([]interval.Labeled, 0, listed*len(windows))
	for _, d := range s.delays[:listed] {
		for _, w := range windows {
			s.items = append(s.items, interval.Labeled{Lo: w.Start - d, Length: w.Len, Label: int64(d)})
		}
	}
	return s, nil
}

// first returns the delay after beacon 0 of the beacon that start j
// discovers with at an offset covered by the beacons of delays labels
// (ascending, at least one): the first at or after beacon j within j's
// horizon, or past it the first covering one a hyperperiod later. ok is
// false when j's horizon ends first. p is a cursor into labels: a caller
// passes 0 for its first start and then visits starts in increasing order.
func (s *pairSweep) first(labels []int64, j int, p *int) (delay int64, ok bool) {
	q := *p
	for q < len(labels) && labels[q] < int64(s.delays[j]) {
		q++
	}
	*p = q
	if q < len(labels) && labels[q] < int64(s.delays[j+s.horizon]) {
		return labels[q], true
	}
	return labels[0] + int64(s.hyper), s.hyper > 0
}

// Table is a pair's latency table on a quiet channel: the coverage map of
// Section 4.1 kept per elementary segment instead of integrated. With
// beacon 0 at offset x of the window period, the segment holding x fixes
// which beacons land in a window, and so, for every starting beacon j, the
// delay from j's start to the end of the first beacon received: the
// latency the simulation kernel reports, which counts the received
// beacon's own airtime. Beacon j then sits at offset x + (τj − τ0); every
// start shares beacon 0's segments, so only the latencies are per start.
type Table struct {
	// Bounds are the segments' starts, ascending from 0: segment s covers
	// beacon-0 offsets [Bounds[s], Bounds[s+1]), the last one up to TC.
	Bounds []timebase.Ticks

	// Latency holds, start-major, every start's latency per segment:
	// Latency[j·len(Bounds)+s] for start j on segment s, or −1 where no
	// beacon ever lands in a window.
	Latency []timebase.Ticks
}

// NewTable tabulates the latency of listener c discovering sender b on a
// quiet channel, from the sweep Analyze runs. It covers deterministic and
// non-deterministic pairs alike, and refuses a pair whose hyperperiod
// spans more beacons than the analysis examines, since offsets it leaves
// uncovered could still discover later.
func NewTable(b schedule.BeaconSeq, c schedule.WindowSeq) (Table, error) {
	s, err := newPairSweep(b, c, Options{})
	if err != nil {
		return Table{}, err
	}
	if s.hyper == 0 {
		return Table{}, fmt.Errorf("coverage: the hyperperiod of lcm(%d, %d) spans more than %d beacons; no latency table", b.Period, c.Period, s.horizon)
	}
	var t Table
	var bySegment []timebase.Ticks // segment-major while sweeping
	var sweep interval.Sweeper
	sweep.Sweep(c.Period, s.items, func(iv interval.Interval, labels []int64) {
		t.Bounds = append(t.Bounds, iv.Lo)
		p := 0
		for j := 0; j < s.mB; j++ {
			if len(labels) == 0 {
				bySegment = append(bySegment, -1)
				continue
			}
			// With a whole hyperperiod listed, every start discovers
			// wherever beacon 0's images cover. The received beacon's
			// airtime counts; delays grow with the beacon ordinal, so its
			// delay within the hyperperiod finds it.
			first, _ := s.first(labels, j, &p)
			i, _ := slices.BinarySearch(s.delays, timebase.Ticks(first)%s.hyper)
			bySegment = append(bySegment, timebase.Ticks(first)-s.delays[j]+b.Beacons[i%s.mB].Len)
		}
	})
	segs := len(t.Bounds)
	t.Latency = make([]timebase.Ticks, len(bySegment))
	for i, l := range bySegment {
		t.Latency[(i%s.mB)*segs+i/s.mB] = l
	}
	return t, nil
}

// LatencyProfile returns the exact packet-to-packet discovery latency as a
// function of the initial offset Φ1, for the beacon sequence starting at
// beacon startIdx. Segments with Count == 0 are uncovered offsets.
func LatencyProfile(b schedule.BeaconSeq, c schedule.WindowSeq, startIdx int, opt Options) ([]interval.Segment, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if b.Empty() || c.Empty() {
		return nil, errors.New("coverage: empty sequence")
	}
	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return nil, err
	}
	horizon, _ := horizonBeacons(b, c, opt)
	start := startIdx % b.MB()
	if start < 0 {
		start += b.MB()
	}
	items, _ := coverageItems(b, windows, c.Period, start, horizon)
	segs, _ := interval.SweepMin(c.Period, items)
	return segs, nil
}

// QWorstLatency computes the worst-case latency until an offset has been
// covered by q distinct beacons — the Appendix B redundancy metric L(Pf):
// a schedule that covers every offset q times gives each discovery attempt
// q independent chances against collisions. Returns ok=false if some offset
// is not covered q times within the hyperperiod horizon.
func QWorstLatency(b schedule.BeaconSeq, c schedule.WindowSeq, q int, opt Options) (timebase.Ticks, bool, error) {
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
	horizon, _ := horizonBeacons(b, c, opt)
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

// Map is the explicit coverage map of Section 4.1: one offset-set Ωi per
// examined beacon. It exists mainly for inspection, rendering and tests;
// Analyze uses the sweep directly.
type Map struct {
	Period timebase.Ticks // TC
	Omegas []OmegaSet
}

// OmegaSet is the set of initial offsets covered by one beacon.
type OmegaSet struct {
	BeaconIndex int            // i (0-based within B∞ from the start beacon)
	Delay       timebase.Ticks // τi − τ0, the accumulated beacon gaps
	Offsets     *interval.Set  // Ωi restricted to [0, TC)
}

// BuildMap constructs the coverage map of the first numBeacons beacons of
// b (starting at beacon 0) against c.
func BuildMap(b schedule.BeaconSeq, c schedule.WindowSeq, numBeacons int, opt Options) (Map, error) {
	if err := b.Validate(); err != nil {
		return Map{}, err
	}
	if err := c.Validate(); err != nil {
		return Map{}, err
	}
	if b.Empty() || c.Empty() {
		return Map{}, errors.New("coverage: empty sequence")
	}
	if numBeacons <= 0 {
		return Map{}, fmt.Errorf("coverage: numBeacons %d must be positive", numBeacons)
	}
	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return Map{}, err
	}
	first := b.Beacons[0].Time
	horizonEnd := first + timebase.CeilDiv(timebase.Ticks(numBeacons), timebase.Ticks(b.MB()))*b.Period + b.Period
	beacons := b.BeaconsWithin(first, horizonEnd)
	if len(beacons) < numBeacons {
		return Map{}, fmt.Errorf("coverage: internal: got %d beacons, want %d", len(beacons), numBeacons)
	}
	m := Map{Period: c.Period}
	for i := 0; i < numBeacons; i++ {
		delay := beacons[i].Time - first
		set := interval.NewSet(c.Period)
		for _, w := range windows {
			set.Add(w.Start-delay, w.Len)
		}
		m.Omegas = append(m.Omegas, OmegaSet{BeaconIndex: i, Delay: delay, Offsets: set})
	}
	return m, nil
}

// TotalCoverage returns the paper's Λ (Definition 4.3): the multiplicity-
// weighted measure of covered offsets, i.e. Σi |Ωi|.
func (m Map) TotalCoverage() timebase.Ticks {
	var total timebase.Ticks
	for _, o := range m.Omegas {
		total += o.Offsets.Measure()
	}
	return total
}

// UnionCoverage returns the set of offsets covered by at least one beacon.
func (m Map) UnionCoverage() *interval.Set {
	u := interval.NewSet(m.Period)
	for _, o := range m.Omegas {
		u.UnionWith(o.Offsets)
	}
	return u
}

// Deterministic reports whether the mapped beacons cover every offset.
func (m Map) Deterministic() bool { return m.UnionCoverage().IsFull() }

// BruteForceWorstLatency computes the worst-case discovery latency by
// directly walking the beacon stream for every integer offset Φ1 ∈ [0, TC)
// with the given step, for every starting beacon. It exists to cross-check
// Analyze and to quantify the cost of not having the sweep (the ablation
// benchmark); it is exact when step == 1.
//
// The returned latency matches Result.WorstLatency (a supremum): the grid
// maximum of the entry wait is λ−1, so the supremum is reconstructed by
// adding the full preceding gap analytically.
func BruteForceWorstLatency(b schedule.BeaconSeq, c schedule.WindowSeq, step timebase.Ticks, opt Options) (timebase.Ticks, bool) {
	if step <= 0 {
		step = 1
	}
	windows, err := usefulWindows(c, opt, maxOmega(b))
	if err != nil {
		return 0, false
	}
	wset := interval.NewSet(c.Period)
	for _, w := range windows {
		wset.Add(w.Start, w.Len)
	}
	horizon, _ := horizonBeacons(b, c, opt)
	gaps := b.Gaps()
	mB := b.MB()
	extra := timebase.Ticks(0)
	if opt.CountLastPacket {
		extra = maxOmega(b)
	}
	var worst timebase.Ticks
	for j := 0; j < mB; j++ {
		first := b.Beacons[j].Time
		end := first + timebase.Ticks(horizon/mB+2)*b.Period
		beacons := b.BeaconsWithin(first, end)
		if len(beacons) > horizon {
			beacons = beacons[:horizon]
		}
		var lMax timebase.Ticks
		found := true
		for phi := timebase.Ticks(0); phi < c.Period; phi += step {
			hit := false
			for _, bc := range beacons {
				delay := bc.Time - first
				if wset.Contains(phi + delay) {
					if l := delay + extra; l > lMax {
						lMax = l
					}
					hit = true
					break
				}
			}
			if !hit {
				found = false
				break
			}
		}
		if !found {
			return 0, false
		}
		if l := gaps[(j-1+mB)%mB] + lMax; l > worst {
			worst = l
		}
	}
	return worst, true
}

// --- internals ---

// usefulWindows returns the windows to use for coverage, shrunk by ω when
// Options.TruncatedWindows is set.
func usefulWindows(c schedule.WindowSeq, opt Options, omega timebase.Ticks) ([]schedule.Window, error) {
	if !opt.TruncatedWindows {
		return c.Windows, nil
	}
	out := make([]schedule.Window, 0, len(c.Windows))
	for _, w := range c.Windows {
		if w.Len <= omega {
			return nil, fmt.Errorf("coverage: window of length %d cannot receive packets of airtime %d (Appendix A.3)", w.Len, omega)
		}
		out = append(out, schedule.Window{Start: w.Start, Len: w.Len - omega})
	}
	return out, nil
}

func maxOmega(b schedule.BeaconSeq) timebase.Ticks {
	var m timebase.Ticks
	for _, bc := range b.Beacons {
		if bc.Len > m {
			m = bc.Len
		}
	}
	return m
}

// horizonBeacons returns how many consecutive beacons to examine: one full
// hyperperiod's worth (images repeat after lcm(TB, TC)), or the caller's
// cap. hyper is the hyperperiod when the horizon spans exactly one, and 0
// when a cap cut it.
func horizonBeacons(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) (n int, hyper timebase.Ticks) {
	if opt.MaxBeacons > 0 {
		return opt.MaxBeacons, 0
	}
	hp := timebase.LCM(b.Period, c.Period)
	beacons := hp / b.Period * timebase.Ticks(b.MB())
	const maxHorizon = 4 << 20
	if beacons > maxHorizon {
		return maxHorizon, 0
	}
	if beacons < 1 {
		return 1, 0
	}
	return int(beacons), hp
}

// beaconDelays returns the delays of the first n beacons of B∞ after
// beacon 0, in order.
func beaconDelays(b schedule.BeaconSeq, n int) []timebase.Ticks {
	mB := b.MB()
	first := b.Beacons[0].Time
	delays := make([]timebase.Ticks, n)
	for i := range delays {
		delays[i] = timebase.Ticks(i/mB)*b.Period + b.Beacons[i%mB].Time - first
	}
	return delays
}

// uint128 is an exact unsigned 128-bit sum: a latency-weighted length
// summed over a long horizon can exceed int64.
type uint128 struct{ hi, lo uint64 }

func (u *uint128) addMul(x, y uint64) {
	hi, lo := bits.Mul64(x, y)
	var carry uint64
	u.lo, carry = bits.Add64(u.lo, lo, 0)
	u.hi += hi + carry
}

// float64 returns u rounded to the nearest float64.
func (u uint128) float64() float64 {
	if u.hi == 0 {
		return float64(u.lo)
	}
	x := new(big.Int).Lsh(new(big.Int).SetUint64(u.hi), 64)
	f, _ := new(big.Float).SetInt(x.Or(x, new(big.Int).SetUint64(u.lo))).Float64()
	return f
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
