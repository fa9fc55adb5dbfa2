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
// out the n beacon images of one hyperperiod lcm(TB, TC) once, already
// reduced onto [0, TC), sorts their opening endpoints once
// (interval.Sweeper's radix sort), holds each covering image's close on a
// heap, and reads every starting beacon's worst and mean latency off the
// same s elementary segments: the sweep costs O(n·nC·(r + log q + q)) for r
// radix passes and overlap depth q, and the per-start reading O(s·mB). A
// Workspace keeps that layout's buffers for a caller that analyzes pair
// after pair. The same engine therefore serves as the
// repository's reference "simulator" for two periodic devices: analyses
// are exact rather than sampled. A deliberately naive brute-force
// evaluator is provided for cross-validation and for the ablation
// benchmark.
package coverage

import (
	"errors"
	"fmt"
	"math"
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
	var ws Workspace
	res, _, err := AnalyzeWithTableSize(b, c, opt, &ws)
	return res, err
}

// Workspace holds the buffers a pair analysis lays out and sweeps: the
// beacon delays, the sweep's items and the interval.Sweeper. A caller that
// analyzes pair after pair passes one Workspace to every call, and after
// the first few calls only each call's per-start slices are allocated.
// Reuse never changes a result. The zero value is ready to use; a
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	delays []timebase.Ticks
	items  []interval.Labeled
	sweep  interval.Sweeper
}

// AnalyzeWithTableSize is Analyze on the caller's workspace that also
// returns the entry count of the pair's latency table (NewTable): one
// entry per starting beacon on each elementary segment of the sweep. The
// count is 0 when NewTable refuses the pair, or when opt truncates the
// windows, which the table does not model. Counting costs nothing beyond
// the sweep Analyze runs anyway, so a caller can decide whether a table
// pays before building one.
func AnalyzeWithTableSize(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options, ws *Workspace) (Result, int, error) {
	windows, err := listenerWindows(b, c, opt)
	if err != nil {
		return Result{}, 0, err
	}
	horizon, hyper, err := horizonBeacons(b, c.Period, opt)
	if err != nil {
		return Result{}, 0, err
	}
	s, err := ws.pairSweep(b, c.Period, [][]schedule.Window{windows}, horizon, hyper)
	if err != nil {
		return Result{}, 0, err
	}
	mB := s.mB
	var (
		uncovered  timebase.Ticks
		segments   int
		minM, maxM = math.MaxInt, 0
		lastFirst  int64                         // latest first-covering delay from beacon 0
		minSecond  = int64(math.MaxInt64)        // earliest second-covering delay
		lMax       = make([]int64, mB)           // per start: worst packet latency
		lSum       = make([]timebase.Sum128, mB) // per start: Σ latency · segment length
		failed     = mB                          // first start that leaves an offset uncovered
		horizonEnd = int64(s.delays[horizon])    // beacon 0's horizon
	)
	ws.sweep.Sweep(c.Period, s.items, func(iv interval.Interval, labels []int64) {
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
		p := 0
		for j := 0; j < mB; j++ {
			first, ok := s.first(labels, j, &p)
			if !ok {
				failed = min(failed, j)
				continue
			}
			l := first - int64(s.delays[j])
			lMax[j] = max(lMax[j], l)
			lSum[j].AddMul(timebase.Ticks(l), iv.Len())
		}
	})
	entries := 0
	if hyper > 0 && !opt.TruncatedWindows {
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
		lSum[j].AddMul(extra, c.Period)
		gapBefore := gaps[(j-1+mB)%mB]
		worstPacket = max(worstPacket, l)
		worst = max(worst, gapBefore+l)
		lMean := lSum[j].Float64() / float64(c.Period)
		meanNum += float64(gapBefore) * (lMean + float64(gapBefore)/2)
	}
	res.WorstPacketLatency = worstPacket
	res.WorstLatency = worst
	res.MeanLatency = meanNum / float64(b.Period)
	return res, entries, nil
}

// pairSweep is the one sweep behind every pair analysis: beacon 0's images
// on the listener's cycle [0, TC), one item per (beacon, window that
// beacon can land in), each labeled with its beacon's delay after beacon
// 0. By Equation 3 starting beacon j's images are beacon 0's shifted by
// its delay, so every start reads its latencies off the same segments
// (first, kth). Its delays and items live in the Workspace that laid it
// out, until that Workspace's next analysis.
type pairSweep struct {
	mB      int
	horizon int              // beacons each start examines
	hyper   timebase.Ticks   // the hyperperiod when horizon spans one, else 0
	delays  []timebase.Ticks // delays[i]: beacon i's delay after beacon 0
	items   []interval.Labeled
}

// pairSweep lays out, in ws, the sweep of sender b against windows on the
// cycle [0, tc): one list of windows every beacon can land in, or one per
// beacon of a period, beacon i's in windows[i]. It lists the horizon's
// beacons, plus the mB−1 that later starts reach past a capped horizon
// (hyper 0). Each beacon's delay is reduced mod tc once, so every item
// starts inside the cycle and the sweep divides for none of them.
func (ws *Workspace) pairSweep(b schedule.BeaconSeq, tc timebase.Ticks, windows [][]schedule.Window, horizon int, hyper timebase.Ticks) (pairSweep, error) {
	s := pairSweep{mB: b.MB(), horizon: horizon, hyper: hyper}
	// Start j examines beacons j … j+horizon−1.
	var err error
	if ws.delays, err = beaconDelays(ws.delays[:0], b, horizon+s.mB, hyper); err != nil {
		return pairSweep{}, err
	}
	s.delays = ws.delays
	listed := horizon
	if hyper == 0 {
		listed += s.mB - 1
	}
	n := 0 // beacon i takes windows[i mod len(windows)]
	for r, w := range windows {
		beacons := listed / len(windows)
		if r < listed%len(windows) {
			beacons++
		}
		n += beacons * len(w)
	}
	items := slices.Grow(ws.items[:0], n)
	r := 0
	for _, d := range s.delays[:listed] {
		shift := d % tc
		for _, w := range windows[r] {
			lo := w.Start - shift
			if lo < 0 {
				lo += tc
			}
			items = append(items, interval.Labeled{Lo: lo, Length: w.Len, Label: int64(d)})
		}
		if r++; r == len(windows) {
			r = 0
		}
	}
	ws.items, s.items = items, items
	return s, nil
}

// first returns the delay after beacon 0 of the beacon that start j
// discovers with at an offset covered by the beacons of delays labels
// (ascending, at least one): the first at or after beacon j within j's
// horizon, or past it the first covering one a hyperperiod later. ok is
// false when j's horizon ends first. p is a cursor into labels: a caller
// passes 0 for its first start and then visits starts in increasing order,
// and first leaves it at the first delay at or after beacon j's.
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

// kth is first for the k-th (from 0) covering beacon from beacon j on. Over
// a whole hyperperiod the listed beacons cover the offset again a
// hyperperiod later each time, so the count wraps into the next
// hyperperiods; a capped horizon ends it instead.
func (s *pairSweep) kth(labels []int64, j, k int, p *int) (delay int64, ok bool) {
	if _, ok := s.first(labels, j, p); !ok {
		return 0, false
	}
	q := *p + k
	if s.hyper > 0 {
		return labels[q%len(labels)] + int64(q/len(labels))*int64(s.hyper), true
	}
	if q < len(labels) && labels[q] < int64(s.delays[j+s.horizon]) {
		return labels[q], true
	}
	return 0, false
}

// Table is a pair's latency table on a quiet channel: the coverage map of
// Section 4.1 kept per elementary segment instead of integrated. With
// beacon 0 at offset x of the listener's cycle, the segment holding x fixes
// which beacons land in a window, and so, for every starting beacon j,
// which beacon j discovers with and after what delay. Beacon j then sits
// at offset x + (τj − τ0): every start shares beacon 0's segments, and only
// the entries are per start. Whether a latency counts the received
// beacon's airtime, and what its index stands for, is the reader's
// convention.
type Table struct {
	// Bounds are the segments' starts, ascending from 0: segment s covers
	// beacon-0 offsets [Bounds[s], Bounds[s+1]), the last one up to the
	// end of the cycle.
	Bounds []timebase.Ticks

	// Delay and Index hold one entry per segment and start, segment-major:
	// entry s·mB + j is start j on segment s. Delay is the delay from
	// start j's start to the start of the beacon received, or −1 where no
	// beacon ever lands in a window; Index is that beacon's index within
	// its period.
	Delay []timebase.Ticks
	Index []int32
}

// NewTable tabulates the latency of listener c discovering sender b on a
// quiet channel, from the sweep Analyze runs. It covers deterministic and
// non-deterministic pairs alike, and refuses a pair whose hyperperiod
// spans more beacons than the analysis examines, since offsets it leaves
// uncovered could still discover later.
func NewTable(b schedule.BeaconSeq, c schedule.WindowSeq) (Table, error) {
	windows, err := listenerWindows(b, c, Options{})
	if err != nil {
		return Table{}, err
	}
	return newTable(b, c.Period, [][]schedule.Window{windows})
}

// NewChannelTable is NewTable for a sender that rotates channels within its
// period: beacon i of every period goes out on channel i, against a
// listener whose schedule on channel i is c[i], all of one period. A
// beacon lands only in its own channel's windows, and a table entry's
// Index is its channel. The BLE-style advertiser and scanner of package
// multichannel are such a pair.
func NewChannelTable(b schedule.BeaconSeq, c []schedule.WindowSeq) (Table, error) {
	if err := b.Validate(); err != nil {
		return Table{}, err
	}
	if b.Empty() {
		return Table{}, errors.New("coverage: beacon sequence is empty")
	}
	if len(c) != b.MB() {
		return Table{}, fmt.Errorf("coverage: %d beacons per period on as many channels, but %d channel schedules", b.MB(), len(c))
	}
	windows := make([][]schedule.Window, len(c))
	for i, ci := range c {
		if err := ci.Validate(); err != nil {
			return Table{}, err
		}
		if ci.Period != c[0].Period {
			return Table{}, fmt.Errorf("coverage: channel %d's cycle %d differs from channel 0's %d", i, ci.Period, c[0].Period)
		}
		windows[i] = ci.Windows
	}
	return newTable(b, c[0].Period, windows)
}

// newTable tabulates sender b against windows (newPairSweep) on the cycle
// [0, period). It decides its refusal before laying out any item.
func newTable(b schedule.BeaconSeq, period timebase.Ticks, windows [][]schedule.Window) (Table, error) {
	horizon, hyper, err := horizonBeacons(b, period, Options{})
	if err != nil {
		return Table{}, err
	}
	if hyper == 0 {
		return Table{}, fmt.Errorf("coverage: the hyperperiod of lcm(%d, %d) spans more than %d beacons; no latency table", b.Period, period, horizon)
	}
	var ws Workspace
	s, err := ws.pairSweep(b, period, windows, horizon, hyper)
	if err != nil {
		return Table{}, err
	}
	var t Table
	ws.sweep.Sweep(period, s.items, func(iv interval.Interval, labels []int64) {
		t.Bounds = append(t.Bounds, iv.Lo)
		p := 0
		for j := 0; j < s.mB; j++ {
			if len(labels) == 0 {
				t.Delay = append(t.Delay, -1)
				continue
			}
			// With a whole hyperperiod listed, every start discovers
			// wherever beacon 0's images cover.
			first, _ := s.first(labels, j, &p)
			t.Delay = append(t.Delay, timebase.Ticks(first)-s.delays[j])
		}
	})
	// Delays grow with the beacon ordinal, so the received beacon's delay
	// after beacon 0, within the hyperperiod, finds its index.
	t.Index = make([]int32, len(t.Delay))
	for seg := 0; seg < len(t.Delay); seg += s.mB {
		for j, d := range t.Delay[seg : seg+s.mB] {
			if d >= 0 {
				i, _ := slices.BinarySearch(s.delays, (s.delays[j]+d)%hyper)
				t.Index[seg+j] = int32(i % s.mB)
			}
		}
	}
	return t, nil
}

// QWorstLatency computes the worst-case latency until an offset has been
// covered by q distinct beacons — the Appendix B redundancy metric L(Pf):
// a schedule that covers every offset q times gives each discovery attempt
// q independent chances against collisions. Returns ok=false if some offset
// is not covered q times within the horizon. Over one hyperperiod the
// images repeat, so the q-th covering beacon at or after a start is read
// off the one sweep Analyze runs, wrapping into the next hyperperiods (kth).
func QWorstLatency(b schedule.BeaconSeq, c schedule.WindowSeq, q int, opt Options) (timebase.Ticks, bool, error) {
	if q < 1 {
		return 0, false, fmt.Errorf("coverage: q=%d must be ≥ 1", q)
	}
	windows, err := listenerWindows(b, c, opt)
	if err != nil {
		return 0, false, err
	}
	// A capped horizon cannot wrap. MaxBeacons is honored verbatim; a
	// hyperperiod past the analysis's beacon cap is examined over q caps'
	// worth of beacons, as q hyperperiods would be.
	horizon, hyper, err := horizonBeacons(b, c.Period, opt)
	if err != nil {
		return 0, false, err
	}
	if hyper == 0 && opt.MaxBeacons == 0 {
		horizon *= q
	}
	var ws Workspace
	s, err := ws.pairSweep(b, c.Period, [][]schedule.Window{windows}, horizon, hyper)
	if err != nil {
		return 0, false, err
	}
	lMax := make([]int64, s.mB) // per start: the worst q-th delay
	covered := true
	ws.sweep.Sweep(c.Period, s.items, func(_ interval.Interval, labels []int64) {
		if len(labels) == 0 {
			covered = false
		}
		p := 0
		for j := 0; covered && j < s.mB; j++ {
			d, ok := s.kth(labels, j, q-1, &p)
			covered = ok
			lMax[j] = max(lMax[j], d-int64(s.delays[j]))
		}
	})
	if !covered {
		return 0, false, nil
	}
	gaps := b.Gaps()
	var worst timebase.Ticks
	for j, l := range lMax {
		worst = max(worst, gaps[(j-1+s.mB)%s.mB]+timebase.Ticks(l))
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
	windows, err := listenerWindows(b, c, opt)
	if err != nil {
		return 0, false
	}
	wset := interval.NewSet(c.Period)
	for _, w := range windows {
		wset.Add(w.Start, w.Len)
	}
	horizon, _, err := horizonBeacons(b, c.Period, opt)
	if err != nil {
		return 0, false
	}
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

// listenerWindows validates the single-channel pair (b, c) and returns the
// windows every beacon of b can land in: all of c's useful windows.
func listenerWindows(b schedule.BeaconSeq, c schedule.WindowSeq, opt Options) ([]schedule.Window, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if b.Empty() {
		return nil, errors.New("coverage: beacon sequence is empty")
	}
	if c.Empty() {
		return nil, errors.New("coverage: window sequence is empty")
	}
	return usefulWindows(c, opt, maxOmega(b))
}

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

// maxHorizon caps the beacons an analysis examines per start: 2^22.
const maxHorizon = 4 << 20

// horizonBeacons returns how many consecutive beacons of the valid,
// non-empty b to examine against a listener cycle of tc: one full
// hyperperiod's worth (images repeat after lcm(TB, TC)), or the caller's
// cap, or maxHorizon. hyper is the hyperperiod when the horizon spans
// exactly one, and 0 when a cap cut it. The hyperperiod holds
// TC/gcd(TB, TC) periods of mB beacons; they are counted, and the cap
// applied, before the hyperperiod is formed, so a pair past the cap never
// forms it, and a hyperperiod that would overflow int64 is an error.
func horizonBeacons(b schedule.BeaconSeq, tc timebase.Ticks, opt Options) (n int, hyper timebase.Ticks, err error) {
	if opt.MaxBeacons > 0 {
		return opt.MaxBeacons, 0, nil
	}
	periods := tc / timebase.GCD(b.Period, tc)
	mB := timebase.Ticks(b.MB())
	if periods > maxHorizon/mB {
		return maxHorizon, 0, nil
	}
	if periods > math.MaxInt64/b.Period {
		return 0, 0, fmt.Errorf("coverage: the hyperperiod lcm(%d, %d) overflows int64", b.Period, tc)
	}
	return int(periods * mB), periods * b.Period, nil
}

// beaconDelays appends to delays the delays after beacon 0 of the first n
// beacons of B∞, in order. It fails when the latencies read from them
// could overflow int64: every delay, plus a hyperperiod's wrap past it,
// plus the gap before a start, must fit.
func beaconDelays(delays []timebase.Ticks, b schedule.BeaconSeq, n int, hyper timebase.Ticks) ([]timebase.Ticks, error) {
	mB := b.MB()
	// Every delay is below periods·TB.
	if periods := int64((n-1)/mB) + 1; periods+1 > (math.MaxInt64-int64(hyper))/int64(b.Period) {
		return delays, fmt.Errorf("coverage: %d beacons of period %d overflow int64", n, b.Period)
	}
	delays = slices.Grow(delays, n)
	first := b.Beacons[0].Time
	for i := 0; i < n; i++ {
		delays = append(delays, timebase.Ticks(i/mB)*b.Period+b.Beacons[i%mB].Time-first)
	}
	return delays, nil
}
