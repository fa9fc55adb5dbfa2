package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file is the simulation kernel: one event-driven engine over a world
// of nodes × radios × channels. Every node owns a set of channel-tagged
// periodic beacon schedules (emissions) and window schedules (listens); the
// kernel generates every emission's transmissions as one start-sorted run,
// resolves ALOHA collisions per channel in one start-ordered pass over all
// packets, and matches every listener's windows against each sender's runs
// to find first receptions. All trial paths — the single-channel
// pair/group/churn workloads (PairTrialScratch, GroupTrialScratch,
// ChurnTrialScratch), the multi-channel advertiser/scanner pair
// (MultiChannelPairTrialScratch), the slot-aligned pairs
// (SlotGridPair.TrialScratch) and the multi-node multi-channel workloads
// (MultiChannelGroupTrialScratch, MultiChannelChurnTrialScratch) — are thin
// configurations of this kernel.

// Emission is one periodic beacon schedule a node transmits on a channel.
// Phase places the schedule's origin at absolute time Phase.
type Emission struct {
	Channel int
	B       schedule.BeaconSeq
	Phase   timebase.Ticks
}

// Listening is one periodic reception-window schedule a node runs on a
// channel. Phase places the schedule's origin at absolute time Phase.
type Listening struct {
	Channel int
	C       schedule.WindowSeq
	Phase   timebase.Ticks
}

// WorldNode is one device of the world: its channel-tagged transmit and
// receive schedules plus its presence interval [Arrive, Depart). The zero
// values mean "present from the start" and "never departs".
type WorldNode struct {
	Emits   []Emission
	Listens []Listening
	Arrive  timebase.Ticks
	Depart  timebase.Ticks // 0 = stays for the whole horizon
}

func (n WorldNode) departOr(horizon timebase.Ticks) timebase.Ticks {
	if n.Depart <= 0 {
		return horizon
	}
	return n.Depart
}

// transmitsDuring reports whether node r has any own beacon on air
// overlapping [from, to), over all of its emissions. The check consults the
// un-jittered schedules — the deliberate approximation the half-duplex
// model has always used. Instead of materializing candidate beacons it
// walks the (at most two or three) schedule cycles touching the range and
// binary-searches the first relevant beacon per cycle; the per-emission
// airtime maxima come precomputed from scr.emMax (filled by RunWorldScratch
// whenever cfg.HalfDuplex is set).
func (n *WorldNode) transmitsDuring(r int, from, to timebase.Ticks, scr *Scratch) bool {
	base := scr.emBase[r]
	for j := range n.Emits {
		em := &n.Emits[j]
		if em.B.Empty() {
			continue
		}
		// A beacon overlaps [from, to) if it starts before to and ends
		// after from; beacons starting up to one airtime before from
		// qualify, hence the maxLen-widened query range.
		maxLen := scr.emMax[base+j]
		lo := from - em.Phase - maxLen
		hi := to - em.Phase
		if em.B.Period <= 0 || hi <= lo {
			continue
		}
		bs := em.B.Beacons
		firstCycle := floorDiv(lo-bs[len(bs)-1].Time, em.B.Period) - 1
		for cycle := firstCycle; ; cycle++ {
			cb := cycle * em.B.Period
			if cb > hi {
				break
			}
			for i := beaconAt(bs, lo-cb); i < len(bs); i++ {
				t := cb + bs[i].Time
				if t >= hi {
					break
				}
				s := t + em.Phase
				if s < to && s+bs[i].Len > from {
					return true
				}
			}
		}
	}
	return false
}

// beaconAt returns the index of the first beacon with Time ≥ t.
func beaconAt(bs []schedule.Beacon, t timebase.Ticks) int {
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bs[mid].Time < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// floorDiv is floor division on ticks (round toward −∞), matching the
// cycle-index convention of schedule's AppendWindowsWithin.
func floorDiv(a, b timebase.Ticks) timebase.Ticks {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Reception is one received packet: its airtime and channel.
type Reception struct {
	Start, End timebase.Ticks
	Channel    int
}

// ChannelLoad is one channel's traffic accounting.
type ChannelLoad struct {
	Transmissions, Collided int
}

// WorldResult aggregates one kernel run.
type WorldResult struct {
	// Transmissions and Collided count packets on air and packets
	// destroyed by the per-channel collision model, over all channels;
	// PerChannel splits both by channel (indexed by channel id).
	Transmissions, Collided int
	PerChannel              []ChannelLoad

	// receptions is the nodes × nodes table of earliest receptions,
	// row-major by receiver; see FirstReception.
	receptions []firstCell
	nodes      int
}

// firstCell is one (receiver, sender) entry of the first-reception table.
type firstCell struct {
	rec   Reception
	found bool
}

// FirstReception returns receiver's earliest reception of sender (earliest
// packet start; ties broken by channel), and false when receiver heard
// nothing from sender within the horizon. Both are node indices of the
// run.
func (r WorldResult) FirstReception(receiver, sender int) (Reception, bool) {
	c := r.receptions[receiver*r.nodes+sender]
	return c.rec, c.found
}

// channelCount returns 1 + the highest channel id used by any emission or
// listening (at least 1, so a world always has a channel 0).
func channelCount(nodes []WorldNode) (int, error) {
	max := 0
	for _, n := range nodes {
		for _, em := range n.Emits {
			if em.Channel < 0 {
				return 0, fmt.Errorf("sim: negative emission channel %d", em.Channel)
			}
			if em.Channel > max {
				max = em.Channel
			}
		}
		for _, ls := range n.Listens {
			if ls.Channel < 0 {
				return 0, fmt.Errorf("sim: negative listening channel %d", ls.Channel)
			}
			if ls.Channel > max {
				max = ls.Channel
			}
		}
	}
	return max + 1, nil
}

// txRun is one contiguous, start-sorted segment of the generation buffer:
// the transmissions of a single (node, emission) pair, all on one channel.
type txRun struct {
	lo, hi  int
	channel int
}

// txCmp orders transmissions by start; equal starts compare equal (the
// kernel's results are invariant under equal-start permutations — see the
// collision-pass and first-reception tie-break notes below).
func txCmp(a, b transmission) int {
	switch {
	case a.start < b.start:
		return -1
	case a.start > b.start:
		return 1
	default:
		return 0
	}
}

// RunWorldScratch simulates the node set under cfg: it materializes every
// emission's transmissions, delayed by jitter drawn from rng, marks
// per-channel collisions, and records every listener's first reception
// per sender. rng may be nil when cfg.Jitter is 0, and is an error
// otherwise; every run is deterministic given rng's stream. All kernel
// buffers come from scr and the result aliases it (valid until the next
// run on the same Scratch).
func RunWorldScratch(nodes []WorldNode, cfg Config, rng *rand.Rand, scr *Scratch) (WorldResult, error) {
	if cfg.Horizon <= 0 {
		return WorldResult{}, fmt.Errorf("sim: horizon %d must be positive", cfg.Horizon)
	}
	if len(nodes) < 2 {
		return WorldResult{}, fmt.Errorf("sim: need at least 2 nodes, got %d", len(nodes))
	}
	nCh, err := channelCount(nodes)
	if err != nil {
		return WorldResult{}, err
	}
	if cfg.Jitter > 0 && rng == nil {
		return WorldResult{}, fmt.Errorf("sim: jitter %d needs an rng", cfg.Jitter)
	}

	// Precompute the half-duplex airtime maxima per emission (node-major
	// ordinals, bases in scr.emBase) so transmitsDuring does not rescan the
	// beacon list on every candidate reception.
	if cfg.HalfDuplex {
		scr.emBase = grow(scr.emBase, len(nodes))
		total := 0
		for i := range nodes {
			scr.emBase[i] = total
			total += len(nodes[i].Emits)
		}
		scr.emMax = grow(scr.emMax, total)
		for i := range nodes {
			for j := range nodes[i].Emits {
				var mx timebase.Ticks
				for _, bc := range nodes[i].Emits[j].B.Beacons {
					if bc.Len > mx {
						mx = bc.Len
					}
				}
				scr.emMax[scr.emBase[i]+j] = mx
			}
		}
	}

	// Generate all transmissions in (node, emission, beacon) order — jitter
	// is drawn in exactly this order, which freezes the RNG stream — keeping
	// one run (contiguous segment of txs) per non-empty emission.
	// BeaconsWithin extends one period into the past so beacons that started
	// before t = 0 can still overlap into the horizon. Each run is sorted by
	// construction unless jitter exceeds a beacon gap; generation detects
	// that and sorts only the disordered runs, so the common case skips
	// sorting entirely.
	txs := scr.txs[:0]
	runs := scr.runs[:0]
	scr.nodeRuns = grow(scr.nodeRuns, len(nodes)+1)
	scr.nodeRuns[0] = 0
	for i := range nodes {
		n := &nodes[i]
		depart := n.departOr(cfg.Horizon)
		for j := range n.Emits {
			em := &n.Emits[j]
			if em.B.Empty() || em.B.Period <= 0 {
				continue
			}
			runLo := len(txs)
			var sorted bool
			txs, sorted = appendRun(txs, em, cfg.Horizon, cfg.Jitter, n.Arrive, depart, rng)
			if len(txs) == runLo {
				continue
			}
			if !sorted {
				slices.SortFunc(txs[runLo:], txCmp)
			}
			runs = append(runs, txRun{lo: runLo, hi: len(txs), channel: em.Channel})
		}
		scr.nodeRuns[i+1] = len(runs)
	}
	scr.txs, scr.runs = txs, runs

	scr.perLoad = grow(scr.perLoad, nCh)
	clear(scr.perLoad)
	scr.receptions = grow(scr.receptions, len(nodes)*len(nodes))
	clear(scr.receptions)
	res := WorldResult{
		Transmissions: len(txs),
		PerChannel:    scr.perLoad,
		receptions:    scr.receptions,
		nodes:         len(nodes),
	}
	for ri := range runs {
		res.PerChannel[runs[ri].channel].Transmissions += runs[ri].hi - runs[ri].lo
	}
	if cfg.Collisions {
		res.Collided = scr.markCollisions(txs, runs, res.PerChannel)
	}

	// Reception, walked per (receiver, listening, sender run) instead of
	// per window over a merged channel timeline: each run is scanned in
	// start order and stops at its first accepted packet. That first accept
	// IS the run's best candidate — later packets start no earlier, and an
	// equal-start packet from the same run is on the same channel, losing
	// the strict (Start, Channel) tie-break — so per (receiver, sender) the
	// combination over listens (in declaration order) and runs (in ordinal
	// order) under strict improvement reproduces exactly what the old
	// time-ordered window walk inserted. Discovery typically lands within a
	// few beacon gaps, so each pair costs a handful of window-membership
	// tests rather than a walk over every window in the horizon.
	//
	// Window membership is tested in O(log windows) by reducing the packet
	// start into the schedule's period. Windows that started before t = 0
	// still receive packets sent after t = 0 (the schedule ran before the
	// devices came into range) — the reduction naturally covers those
	// occurrences; packets that started before t = 0, however, were only
	// partially in range and are never received (start ≥ Arrive ≥ 0, via
	// the presence filter below).
	for r := range nodes {
		n := &nodes[r]
		rDepart := n.departOr(cfg.Horizon)
		for li := range n.Listens {
			ls := &n.Listens[li]
			if ls.C.Empty() || ls.C.Period <= 0 {
				continue
			}
			win := ls.C.Windows
			period := ls.C.Period
			for s := range nodes {
				if s == r {
					continue
				}
				for ri := scr.nodeRuns[s]; ri < scr.nodeRuns[s+1]; ri++ {
					ru := runs[ri]
					if ru.channel != ls.Channel {
						continue
					}
					gi := ru.lo
					if n.Arrive > 0 {
						// Skip packets sent before the receiver arrived
						// (starts are ascending within a run).
						lo, hi := ru.lo, ru.hi
						for lo < hi {
							mid := int(uint(lo+hi) >> 1)
							if txs[mid].start < n.Arrive {
								lo = mid + 1
							} else {
								hi = mid
							}
						}
						gi = lo
					}
					for ; gi < ru.hi; gi++ {
						tx := &txs[gi]
						// Only packets sent entirely while the receiver is
						// present are receivable (a packet straddling the
						// receiver's arrival is heard partially and lost).
						if tx.start >= rDepart {
							break
						}
						if tx.end > rDepart {
							continue
						}
						// Window membership: reduce the start into the
						// period and find the window covering it, if any.
						rel := tx.start - ls.Phase
						k := floorDiv(rel, period)
						off := rel - k*period
						wi := windowAt(win, off)
						if wi < 0 || off >= win[wi].Start+win[wi].Len {
							continue
						}
						if cfg.TruncatedWindows && tx.end > k*period+win[wi].Start+win[wi].Len+ls.Phase {
							continue
						}
						if cfg.Collisions && tx.collided {
							continue
						}
						if cfg.HalfDuplex && n.transmitsDuring(r, tx.start, tx.end, scr) {
							continue
						}
						rec := Reception{Start: tx.start, End: tx.end, Channel: int(tx.channel)}
						c := &res.receptions[r*len(nodes)+s]
						if !c.found || rec.Start < c.rec.Start ||
							(rec.Start == c.rec.Start && rec.Channel < c.rec.Channel) {
							*c = firstCell{rec: rec, found: true}
						}
						break
					}
				}
			}
		}
	}
	return res, nil
}

// appendRun appends emission em's transmissions to txs — every beacon
// occurrence from one period before t = 0 on, shifted by the phase and
// delayed by jitter drawn from rng, that ends after t = 0, starts before
// the horizon and lies within its node's presence [arrive, depart) — and
// reports whether they came out in start order. The occurrences are
// enumerated inline (the same cycle walk as schedule.AppendBeaconsWithin)
// straight into the transmission buffer. This is the kernel's hottest
// loop. In its own function it measured at least as fast as the inline
// loop at both code alignments tried; inline, the same loop ran 11–23%
// slower when the linker put RunWorldScratch on a 64-byte boundary than
// at 32 mod 64.
func appendRun(txs []transmission, em *Emission, horizon, jitter, arrive, depart timebase.Ticks, rng *rand.Rand) ([]transmission, bool) {
	bs := em.B.Beacons
	from, to := -em.Phase-em.B.Period, horizon-em.Phase
	runLo := len(txs)
	sorted := true
	if to <= from {
		return txs, sorted
	}
	firstCycle := floorDiv(from-bs[len(bs)-1].Time, em.B.Period) - 1
	for cycle := firstCycle; ; cycle++ {
		cb := cycle * em.B.Period
		if cb > to {
			break
		}
		for _, bc := range bs {
			t := cb + bc.Time
			if t < from {
				continue
			}
			if t >= to {
				break
			}
			start := t + em.Phase
			if jitter > 0 {
				start += timebase.Ticks(rng.Int63n(int64(jitter) + 1))
			}
			end := start + bc.Len
			if end <= 0 || start >= horizon {
				continue
			}
			// A node only transmits while present.
			if start < arrive || end > depart {
				continue
			}
			if len(txs) > runLo && start < txs[len(txs)-1].start {
				sorted = false
			}
			txs = append(txs, transmission{start: start, end: end, channel: int32(em.Channel)})
		}
	}
	return txs, sorted
}

// markCollisions marks every packet whose airtime overlaps another
// packet's on its channel, counts the marks into loads by channel, and
// returns their total. One pass over all packets in start order, with a
// running furthest end per channel, suffices: any packet starting before
// its channel's furthest end overlaps the packet holding it, and every
// overlapping pair is witnessed this way (if X overlaps a later W on its
// channel, then at W's turn the channel's running maximum either is X or
// belongs to a packet that overlaps X, which marked X earlier). Equal-start
// packets overlap each other, so the marks do not depend on how ties are
// ordered. The order comes from one key per packet, its start's offset
// from the earliest start (which the start-sorted runs give), checked for
// order as the keys are built and radix-sorted only when out of order: a
// lone emitter's packets already are in order.
func (s *Scratch) markCollisions(txs []transmission, runs []txRun, loads []ChannelLoad) int {
	if len(runs) == 0 {
		return 0
	}
	earliest, latest := txs[runs[0].lo].start, txs[runs[0].hi-1].start
	for _, ru := range runs[1:] {
		earliest = min(earliest, txs[ru.lo].start)
		latest = max(latest, txs[ru.hi-1].start)
	}
	keys := grow(s.keys, len(txs))
	sorted := true
	prev := uint64(0)
	for i := range txs {
		key := uint64(txs[i].start - earliest)
		sorted = sorted && key >= prev
		keys[i], prev = interval.Keyed{Key: key, Val: int64(i)}, key
	}
	if !sorted {
		keys, s.keyBuf = interval.RadixSort(keys, s.keyBuf, uint64(latest-earliest))
	}
	s.keys = keys
	s.furthest = grow(s.furthest, len(loads))
	for c := range s.furthest {
		s.furthest[c] = furthest{end: math.MinInt64}
	}
	for _, k := range keys {
		tx := &txs[k.Val]
		c := tx.channel
		f := &s.furthest[c]
		if tx.start < f.end {
			if !tx.collided {
				tx.collided = true
				loads[c].Collided++
			}
			if held := &txs[f.idx]; !held.collided {
				held.collided = true
				loads[c].Collided++
			}
		}
		if tx.end > f.end {
			f.end, f.idx = tx.end, k.Val
		}
	}
	total := 0
	for _, l := range loads {
		total += l.Collided
	}
	return total
}

// furthest is one channel's running furthest packet end in the collision
// pass, and the index of the packet holding it.
type furthest struct {
	end timebase.Ticks
	idx int64
}

// windowAt returns the index of the last window with Start ≤ off, or -1.
func windowAt(win []schedule.Window, off timebase.Ticks) int {
	lo, hi := 0, len(win)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if win[mid].Start <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}
