package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/coverage"
	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file holds the prepared pair: one type for the single-channel pair
// and the multi-channel advertiser/scanner pair, prepared once per point
// the way SlotGridPair is. It carries what a kernel run needs that never
// changes between trials (the escalation runner's acceptance margin) and,
// once tabulated, the pair's latency table. On a quiet channel a pair
// trial is a deterministic function of its two drawn phases, and the
// table is that function, read off the exact analysis's coverage map
// (Section 4.1, Definition 3.4): a trial then costs two divisions and two
// binary searches instead of a kernel run. The kernel entry points
// PairTrialScratch and MultiChannelPairTrialScratch stay as the oracle
// every table must match outcome for outcome, draws included.

// TableEntryBytes is about what a latency table holds per entry: an
// 8-byte latency plus its share of segment bounds, channels and per-start
// bookkeeping. A caller weighing whether to build a table multiplies it by
// the entry count the analysis reports.
const TableEntryBytes = 16

// Pair is a prepared pair trial: sender e against receiver f on one
// channel (NewPair), or a multi-channel advertiser against its
// channel-cycling scanner (NewMultiChannelPair). A Pair is read-only once
// tabulated, so any number of workers may run trials on it at once.
type Pair struct {
	e, f   schedule.Device
	margin timebase.Ticks // the single-channel runner's acceptance margin
	mc     multichannel.Config
	multi  bool
	table  *latencyTable // nil: every trial runs the kernel
}

// NewPair prepares the single-channel pair of sender e and receiver f.
func NewPair(e, f schedule.Device) *Pair {
	return &Pair{e: e, f: f, margin: pairMargin(e, f)}
}

// NewMultiChannelPair prepares the multi-channel pair mc.
func NewMultiChannelPair(mc multichannel.Config) (*Pair, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	return &Pair{mc: mc, multi: true}, nil
}

// Tabulate builds the pair's latency table, after which every trial on a
// quiet channel reads its outcome from it: coverage.NewTable of e's
// beacons against f's windows, or coverage.NewChannelTable of the
// multi-channel layout (multichannel.Config.Schedules), whose entry count
// is the one multichannel.AnalyzeWithTableSize reports.
func (p *Pair) Tabulate() error {
	if p.multi {
		adv, scan := p.mc.Schedules()
		t, err := coverage.NewChannelTable(adv, scan)
		if err != nil {
			return err
		}
		p.table = newLatencyTable(t, adv, scan[0].Period, true)
		return nil
	}
	t, err := coverage.NewTable(p.e.B, p.f.C)
	if err != nil {
		return err
	}
	p.table = newLatencyTable(t, p.e.B, p.f.C.Period, false)
	return nil
}

// TrialScratch runs one trial of the pair on the arena scr. It returns the
// latency — to the first received packet's end on one channel, to its
// start on several — the packet's channel, and whether discovery happened
// within cfg.Horizon. It draws from rng exactly what PairTrialScratch or
// MultiChannelPairTrialScratch draws, and returns what they return; a
// multi-channel pair reads only cfg.Horizon, as MultiChannelPairTrialScratch
// does. A tabulated pair answers a quiet trial by lookup and leaves scr
// untouched.
func (p *Pair) TrialScratch(cfg Config, rng *rand.Rand, scr *Scratch) (lat timebase.Ticks, channel int, ok bool, err error) {
	if p.multi {
		if cfg.Horizon <= 0 {
			return 0, 0, false, fmt.Errorf("sim: horizon %d must be positive", cfg.Horizon)
		}
		u := randPhase(rng, p.mc.Ta)
		x := randPhase(rng, timebase.Ticks(p.mc.Channels)*p.mc.Ts)
		if p.table != nil {
			lat, channel, ok = p.lookup(-u, -x, cfg.Horizon)
			return lat, channel, ok, nil
		}
		oc, err := scr.mcPairAt(p.mc, u, x, cfg.Horizon)
		return oc.Latency, oc.Channel, oc.Discovered, err
	}
	pe, pf := randPhase(rng, phaseSpan(p.e)), randPhase(rng, phaseSpan(p.f))
	seed := rng.Int63()
	if p.table != nil && cfg == (Config{Horizon: cfg.Horizon}) {
		if cfg.Horizon <= 0 {
			return 0, 0, false, fmt.Errorf("sim: horizon %d must be positive", cfg.Horizon)
		}
		lat, _, ok = p.lookup(pe, pf, cfg.Horizon)
		return lat, 0, ok, nil
	}
	lat, ok, err = scr.pairAt(p.e, p.f, pe, pf, cfg, seed, p.margin)
	return lat, 0, ok, err
}

// lookup reads the first reception off the table for the sender at
// emission phase ps and the receiver at listening phase pr, under the
// kernel's horizon rule: on one channel a packet counts iff it ends by the
// horizon, on several iff it starts before it.
func (p *Pair) lookup(ps, pr, horizon timebase.Ticks) (timebase.Ticks, int, bool) {
	lat, ch, ok := p.table.at(ps, pr)
	if !ok || p.multi && lat >= horizon || !p.multi && lat > horizon {
		return 0, 0, false
	}
	return lat, ch, true
}

// latencyTable is a quiet pair's latency table (coverage.Table) in the
// kernel's placement terms: a sender whose beacons start at offsets times
// of every period, shifted by its emission phase, against a receiver whose
// cycle is shifted by its listening phase. Starting beacon j (starting
// PDU, on several channels) at offset φ of the receiver's cycle puts
// beacon 0 at φ − (times[j] − times[0]), and the segment holding that
// offset gives j's entry: the delay from j's start to discovery under the
// kernel's convention — the received packet's end on one channel, its
// start on several — and on several the packet's channel.
type latencyTable struct {
	period timebase.Ticks   // the sender's period
	cycle  timebase.Ticks   // the receiver's cycle, the range of φ
	times  []timebase.Ticks // per start: its offset in the sender's period, ascending
	bounds []timebase.Ticks // beacon 0's segment starts, ascending from 0
	lat    []timebase.Ticks // per segment and start, segment-major: the delay to discovery, −1 for never
	ch     []int32          // per entry: the received packet's channel; nil on one channel
}

// newLatencyTable reads t, sender b's table against a receiver cycle of
// cycle, under the kernel's conventions. On one channel a latency runs to
// the received beacon's end, so each entry gains that beacon's airtime; on
// several (multi) it runs to the packet's start, and the beacon's index
// within the period is its channel. It takes over t's slices.
func newLatencyTable(t coverage.Table, b schedule.BeaconSeq, cycle timebase.Ticks, multi bool) *latencyTable {
	lt := &latencyTable{
		period: b.Period,
		cycle:  cycle,
		times:  make([]timebase.Ticks, b.MB()),
		bounds: t.Bounds,
		lat:    t.Delay,
	}
	for j, bc := range b.Beacons {
		lt.times[j] = bc.Time
	}
	if multi {
		lt.ch = t.Index
		return lt
	}
	for k, d := range lt.lat {
		if d >= 0 {
			lt.lat[k] = d + b.Beacons[t.Index[k]].Len
		}
	}
	return lt
}

// at returns the first reception of a sender placed at emission phase ps
// by a receiver placed at listening phase pr, with no horizon: its
// latency from t = 0 and its channel, and false when it never comes. The
// first live start is the first beacon starting at or after t = 0, since
// a packet that began before the devices came into range is lost.
func (t *latencyTable) at(ps, pr timebase.Ticks) (timebase.Ticks, int, bool) {
	// Beacon j starts at c·period + times[j] + ps: the first at or after
	// t = 0 is the first with times[j] ≥ r in the cycle holding −ps, or
	// else beacon 0 of the next cycle.
	r := floorMod(-ps, t.period)
	j := startAt(t.times, r)
	var s0 timebase.Ticks
	if j == len(t.times) {
		j, s0 = 0, t.period-r+t.times[0]
	} else {
		s0 = t.times[j] - r
	}
	shift := t.times[j] - t.times[0]
	seg := startAt(t.bounds, floorMod(s0-pr-shift, t.cycle)+1) - 1
	k := seg*len(t.times) + j
	l := t.lat[k]
	if l < 0 {
		return 0, 0, false
	}
	ch := 0
	if t.ch != nil {
		ch = int(t.ch[k])
	}
	return s0 + l, ch, true
}

// startAt returns the index of the first of the ascending ts that is ≥ x.
// The lookups' offsets are random, so a branch on each comparison would
// mispredict half the time: each halving step instead adds the half-width
// masked by the comparison's sign bit (ts and x are far from overflow).
func startAt(ts []timebase.Ticks, x timebase.Ticks) int {
	base, n := uint(0), uint(len(ts))
	for n > 1 {
		half := n >> 1
		less := uint(ts[base+half]-x) >> 63 // 1 iff ts[base+half] < x
		base += half & -less
		n -= half
	}
	if n == 1 && ts[base] < x {
		base++
	}
	return int(base)
}

// floorMod reduces a into [0, m).
func floorMod(a, m timebase.Ticks) timebase.Ticks {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
