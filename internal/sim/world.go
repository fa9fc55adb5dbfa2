package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file is the simulation kernel: one event-driven engine over a world
// of nodes × radios × channels. Every node owns a set of channel-tagged
// periodic beacon schedules (emissions) and window schedules (listens); the
// kernel merges all transmissions into one start-sorted timeline, resolves
// ALOHA collisions per channel, and walks every listener's windows to find
// first receptions. All trial paths — the single-channel pair/group/churn
// workloads (PairTrialScratch, GroupTrialScratch, ChurnTrialScratch), the
// multi-channel advertiser/scanner pair (MultiChannelPairTrialScratch), the
// slot-aligned pairs (SlotGridPair.TrialScratch) and the multi-node
// multi-channel workloads (MultiChannelGroupTrialScratch,
// MultiChannelChurnTrialScratch) — are thin configurations of this kernel.

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
	// First[r][s] is the earliest reception of sender s at receiver r
	// (earliest packet start; ties broken by channel); a missing key means
	// no reception within the horizon.
	First map[int]map[int]Reception

	// Transmissions and Collided count packets on air and packets
	// destroyed by the per-channel collision model, over all channels;
	// PerChannel splits both by channel (indexed by channel id).
	Transmissions, Collided int
	PerChannel              []ChannelLoad
}

// FirstReception returns receiver's earliest reception of sender, if any.
func (r WorldResult) FirstReception(receiver, sender int) (Reception, bool) {
	m, ok := r.First[receiver]
	if !ok {
		return Reception{}, false
	}
	rec, ok := m[sender]
	return rec, ok
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

// linearMergeMax is the run count up to which the collision merge scan uses
// a linear min-scan over the run heads instead of a binary heap; beyond it
// the heap's O(log k) per element wins.
const linearMergeMax = 16

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

// runLess orders two active runs in a k-way merge by current head start,
// ties broken by run ordinal, so the merged order is deterministic.
func runLess(txs []transmission, pos []int, a, b int) bool {
	sa, sb := txs[pos[a]].start, txs[pos[b]].start
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// siftRun restores the min-heap property of h (a heap of run ordinals keyed
// by runLess) after h[i] changed.
func siftRun(h []int, i int, txs []transmission, pos []int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && runLess(txs, pos, h[r], h[l]) {
			m = r
		}
		if !runLess(txs, pos, h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// RunWorldScratch simulates the node set under cfg: it materializes every
// emission's jittered transmissions, marks per-channel collisions, and
// records every listener's first reception per sender. Every run is
// deterministic given cfg's RNG stream. All kernel buffers come from scr
// and the result aliases it (valid until the next run on the same
// Scratch).
func RunWorldScratch(nodes []WorldNode, cfg Config, scr *Scratch) (WorldResult, error) {
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
	// The RNG only feeds jitter; materializing it lazily spares jitter-free
	// configurations without an injected Source the (expensive) default
	// math/rand seeding.
	var rng *rand.Rand
	if cfg.Jitter > 0 {
		rng = scr.kernelRNG(cfg)
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
		for _, em := range n.Emits {
			if em.B.Empty() || em.B.Period <= 0 {
				continue
			}
			// Enumerate the emission's beacon occurrences inline (the same
			// cycle walk as schedule.AppendBeaconsWithin) straight into the
			// transmission buffer — no intermediate beacon materialization.
			bs := em.B.Beacons
			from, to := -em.Phase-em.B.Period, cfg.Horizon-em.Phase
			if to <= from {
				continue
			}
			runLo := len(txs)
			sorted := true
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
					if cfg.Jitter > 0 {
						start += timebase.Ticks(rng.Int63n(int64(cfg.Jitter) + 1))
					}
					end := start + bc.Len
					if end <= 0 || start >= cfg.Horizon {
						continue
					}
					// A node only transmits while present.
					if start < n.Arrive || end > depart {
						continue
					}
					if len(txs) > runLo && start < txs[len(txs)-1].start {
						sorted = false
					}
					txs = append(txs, transmission{sender: int32(i), channel: int32(em.Channel), start: start, end: end})
				}
			}
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

	// Mark collisions per channel: a packet is destroyed iff its airtime
	// overlaps another packet's on the same channel. One time-ordered pass
	// per channel with a running furthest-end suffices: any packet starting
	// before the channel's furthest end overlaps the packet holding it, and
	// every overlapping pair is witnessed this way (if X overlaps a later W
	// on its channel, then at W's turn the channel's running maximum either
	// is X or belongs to a packet that overlaps X, which marked X earlier).
	// Equal-start packets overlap each other, so the marks do not depend on
	// how ties were ordered. The time order comes from a k-way merge scan
	// over the channel's runs (keyed by head start, ties by run ordinal)
	// that writes marks in place — no merged copy of the timeline is ever
	// built — and the per-channel collided totals are counted on the
	// false→true mark transitions, so no separate counting pass runs.
	scr.perLoad = grow(scr.perLoad, nCh)
	for c := range scr.perLoad {
		scr.perLoad[c] = ChannelLoad{}
	}
	res := WorldResult{
		First:      scr.firstMaps(),
		PerChannel: scr.perLoad,
	}
	res.Transmissions = len(txs)
	for ri := range runs {
		res.PerChannel[runs[ri].channel].Transmissions += runs[ri].hi - runs[ri].lo
	}
	if cfg.Collisions {
		scr.runPos = grow(scr.runPos, len(runs))
		pos := scr.runPos
		for c := 0; c < nCh; c++ {
			h := scr.heap[:0]
			for ri := range runs {
				if runs[ri].channel == c {
					h = append(h, ri)
					pos[ri] = runs[ri].lo
				}
			}
			scr.heap = h
			maxEnd := timebase.Ticks(0)
			maxIdx := -1
			col := 0
			if len(h) == 1 {
				ru := runs[h[0]]
				for gi := ru.lo; gi < ru.hi; gi++ {
					if maxIdx >= 0 && txs[gi].start < maxEnd {
						if !txs[gi].collided {
							txs[gi].collided = true
							col++
						}
						if !txs[maxIdx].collided {
							txs[maxIdx].collided = true
							col++
						}
					}
					if txs[gi].end > maxEnd {
						maxEnd = txs[gi].end
						maxIdx = gi
					}
				}
				res.PerChannel[c].Collided = col
				res.Collided += col
				continue
			}
			if len(h) <= linearMergeMax {
				// Few runs: a linear min-scan over the cached head starts
				// beats heap bookkeeping (no sift swaps, one tiny array in
				// cache). Ties pick the lowest slot = lowest run ordinal,
				// the same order the heap produces.
				heads := grow(scr.headStart, len(h))
				scr.headStart = heads
				for j, ri := range h {
					heads[j] = txs[pos[ri]].start
				}
				for {
					best := -1
					bs := timebase.Ticks(math.MaxInt64)
					for j := range heads {
						if heads[j] < bs {
							bs = heads[j]
							best = j
						}
					}
					if best < 0 {
						break
					}
					ri := h[best]
					gi := pos[ri]
					if maxIdx >= 0 && txs[gi].start < maxEnd {
						if !txs[gi].collided {
							txs[gi].collided = true
							col++
						}
						if !txs[maxIdx].collided {
							txs[maxIdx].collided = true
							col++
						}
					}
					if txs[gi].end > maxEnd {
						maxEnd = txs[gi].end
						maxIdx = gi
					}
					pos[ri]++
					if pos[ri] < runs[ri].hi {
						heads[best] = txs[pos[ri]].start
					} else {
						heads[best] = math.MaxInt64
					}
				}
				res.PerChannel[c].Collided = col
				res.Collided += col
				continue
			}
			for i := len(h)/2 - 1; i >= 0; i-- {
				siftRun(h, i, txs, pos)
			}
			for len(h) > 0 {
				top := h[0]
				gi := pos[top]
				if maxIdx >= 0 && txs[gi].start < maxEnd {
					if !txs[gi].collided {
						txs[gi].collided = true
						col++
					}
					if !txs[maxIdx].collided {
						txs[maxIdx].collided = true
						col++
					}
				}
				if txs[gi].end > maxEnd {
					maxEnd = txs[gi].end
					maxIdx = gi
				}
				pos[top]++
				if pos[top] == runs[top].hi {
					h[0] = h[len(h)-1]
					h = h[:len(h)-1]
				}
				if len(h) > 0 {
					siftRun(h, 0, txs, pos)
				}
			}
			res.PerChannel[c].Collided = col
			res.Collided += col
		}
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
						m := res.First[r]
						if m == nil {
							m = scr.innerMap()
							m[s] = rec
							res.First[r] = m
							break
						}
						prev, seen := m[s]
						if !seen || rec.Start < prev.Start ||
							(rec.Start == prev.Start && rec.Channel < prev.Channel) {
							m[s] = rec
						}
						break
					}
				}
			}
		}
	}
	return res, nil
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
