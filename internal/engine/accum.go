package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/timebase"
)

// This file is the engine's one aggregation state. Every Monte-Carlo number
// a point reports — latency order statistics and mean, the CDF, failure
// mass, collision and contact counts, the per-channel rows — is a function
// of the multiset of integer-tick latencies plus a few integer counters. So
// each worker folds its trials into an Accum: a sparse latency → count map,
// the sample count, a 128-bit latency sum, min/max, and the pooled
// traffic, contact and per-channel counters. All of it is integer state,
// and integer addition and min/max are associative and commutative, so
// merging per-worker or per-shard accumulators in any order yields the
// identical aggregate for any worker count or shard split.
//
// A point's keys are exact ticks unless it expects more than
// streamThreshold samples. Above it the point is quantized: a latency is
// keyed by its bin ⌊latency / width⌋, with width = ⌈(horizon+1)/streamBins⌉,
// so the map never holds more than streamBins keys however many trials
// run. The rule reads only the effective scenario, so every shard of a run
// agrees on it.
//
// Accuracy contract of a quantized point: Count, Misses, Min, Max,
// FailureRate, CollisionRate, Transmissions, Collided and ContactBins are
// exact, and Mean is the exact 128-bit sum rounded once to float64. The
// quantiles (P50/P95/P99) and the CDF latencies are bin upper edges clamped
// to [Min, Max], so they overestimate the exact order statistic by at most
// one bin width (QuantileResolution in the aggregate): a sample on a bin's
// lower edge is reported at its upper edge, exactly one width higher. The
// CDF fractions are the exact cumulative counts through that bin.

// streamBins is the key count a quantized point is bounded by. Latency
// samples live in [0, horizon], so one bin spans ⌈(horizon+1)/streamBins⌉
// ticks.
const streamBins = 4096

// streamThreshold is the expected-sample count above which a point's keys
// are quantized.
const streamThreshold = 1 << 18

// expectedSamples bounds the latency samples a scenario can produce: one
// per trial for the pair workload, S·(S−1) ordered pairs per trial
// otherwise (churn contacts are a subset of the ordered pairs; the
// multi-node multi-channel kinds judge every ordered pair even at S = 2).
func expectedSamples(sc Scenario) int64 {
	perTrial := int64(1)
	if sc.Population > 2 || sc.Churn != nil || sc.Protocol.MultiChannelGroup() {
		perTrial = int64(sc.Population) * int64(sc.Population-1)
	}
	return int64(sc.Trials) * perTrial
}

// quantized decides whether a scenario's keys are bins rather than exact
// ticks. It reads only the effective scenario, never the scheduling.
func quantized(sc Scenario) bool { return expectedSamples(sc) > streamThreshold }

// keyWidth is the tick span of one key: the bin width on a quantized point
// (1 when its horizon is under streamBins ticks), else 1.
func keyWidth(horizon timebase.Ticks, quantize bool) timebase.Ticks {
	if !quantize {
		return 1
	}
	return max(timebase.CeilDiv(horizon+1, streamBins), 1)
}

// Accum is one point's mergeable aggregation state; its JSON form is the
// ndshard/2 point payload. Horizon, Width, Worst and the counter lengths
// are the point's layout, which every accumulator of the point shares and
// merge enforces.
type Accum struct {
	Horizon timebase.Ticks `json:"horizon"`
	Width   timebase.Ticks `json:"width"`           // a latency's key is latency / Width
	Worst   timebase.Ticks `json:"worst,omitempty"` // contact-bin scale; 0 disables contact bins

	Counts map[timebase.Ticks]int64 `json:"counts,omitempty"` // key → samples
	Count  int64                    `json:"count"`
	Misses int64                    `json:"misses,omitempty"`
	SumLo  uint64                   `json:"sum_lo"` // 128-bit sum of latency ticks
	SumHi  uint64                   `json:"sum_hi,omitempty"`
	Min    timebase.Ticks           `json:"min"`
	Max    timebase.Ticks           `json:"max"`

	Transmissions int64 `json:"transmissions,omitempty"`
	Collided      int64 `json:"collided,omitempty"`

	ContactN []int64 `json:"contact_n,omitempty"` // contacts per contactBinEdges bin (Worst > 0 only)
	ContactD []int64 `json:"contact_d,omitempty"` // discovered contacts per bin

	ChanDisc []int64 `json:"chan_disc,omitempty"` // discoveries per advertising channel
	ChanTx   []int64 `json:"chan_tx,omitempty"`   // transmissions per channel (multi-node kinds)
	ChanColl []int64 `json:"chan_coll,omitempty"` // collided packets per channel (multi-node kinds)
}

// newAccum lays out an empty accumulator. Empty counter lists are nil, so
// an accumulator and its decoded JSON form are the same value.
func newAccum(horizon, width, worst timebase.Ticks, channels int) *Accum {
	a := &Accum{
		Horizon:  horizon,
		Width:    width,
		Worst:    worst,
		Counts:   make(map[timebase.Ticks]int64),
		ChanDisc: counters(channels),
		ChanTx:   counters(channels),
		ChanColl: counters(channels),
	}
	if worst > 0 {
		a.ContactN = counters(len(contactBinEdges))
		a.ContactD = counters(len(contactBinEdges))
	}
	return a
}

func counters(n int) []int64 {
	if n == 0 {
		return nil
	}
	return make([]int64, n)
}

// add records one discovery latency.
func (a *Accum) add(lat timebase.Ticks) {
	if a.Count == 0 || lat < a.Min {
		a.Min = lat
	}
	if a.Count == 0 || lat > a.Max {
		a.Max = lat
	}
	a.Count++
	var carry uint64
	a.SumLo, carry = bits.Add64(a.SumLo, uint64(lat), 0)
	a.SumHi += carry
	if a.Width > 1 {
		lat /= a.Width // exact keys skip the divide, which costs more than the branch
	}
	a.Counts[lat]++
}

// addOutcome records one judged pair: its latency if it discovered, else a
// miss.
func (a *Accum) addOutcome(lat timebase.Ticks, discovered bool) {
	if discovered {
		a.add(lat)
	} else {
		a.Misses++
	}
}

// addContacts bins churn contacts by their overlap in worst-case lengths.
func (a *Accum) addContacts(contacts []sim.Contact) {
	if a.Worst <= 0 {
		return
	}
	for _, c := range contacts {
		idx := contactBinIndex(float64(c.Overlap) / float64(a.Worst))
		a.ContactN[idx]++
		if c.Discovered {
			a.ContactD[idx]++
		}
	}
}

// approxBytes estimates the accumulator's resident memory for the
// peak-accumulator metric: ~32 bytes per map key (key, count and bucket
// overhead), the counter arrays, and a fixed allowance for the struct.
func (a *Accum) approxBytes() int64 {
	n := len(a.ContactN) + len(a.ContactD) + len(a.ChanDisc) + len(a.ChanTx) + len(a.ChanColl)
	return int64(len(a.Counts))*32 + int64(n)*8 + 160
}

// sameLayout reports why b cannot merge into a, if it cannot: pooling
// accumulators of different layouts would not panic but would silently
// misattribute counts.
func (a *Accum) sameLayout(b *Accum) error {
	if a.Horizon != b.Horizon || a.Width != b.Width || a.Worst != b.Worst {
		return fmt.Errorf("incompatible accumulators: horizon/width/worst %d/%d/%d vs %d/%d/%d",
			a.Horizon, a.Width, a.Worst, b.Horizon, b.Width, b.Worst)
	}
	if len(a.ContactN) != len(b.ContactN) || len(a.ContactD) != len(b.ContactD) {
		return fmt.Errorf("incompatible accumulators: contact bins %d/%d vs %d/%d",
			len(a.ContactN), len(a.ContactD), len(b.ContactN), len(b.ContactD))
	}
	if len(a.ChanDisc) != len(b.ChanDisc) || len(a.ChanTx) != len(b.ChanTx) || len(a.ChanColl) != len(b.ChanColl) {
		return fmt.Errorf("incompatible accumulators: %d channels vs %d", len(a.ChanDisc), len(b.ChanDisc))
	}
	return nil
}

// merge folds b into a. All state is integer sums and min/max, so the
// result is independent of merge order.
func (a *Accum) merge(b *Accum) error {
	if b == nil {
		return nil
	}
	if err := a.sameLayout(b); err != nil {
		return fmt.Errorf("engine: merging %w", err)
	}
	if b.Count > 0 {
		if a.Count == 0 || b.Min < a.Min {
			a.Min = b.Min
		}
		if a.Count == 0 || b.Max > a.Max {
			a.Max = b.Max
		}
	}
	a.Count += b.Count
	a.Misses += b.Misses
	var carry uint64
	a.SumLo, carry = bits.Add64(a.SumLo, b.SumLo, 0)
	a.SumHi += b.SumHi + carry
	if a.Counts == nil {
		a.Counts = make(map[timebase.Ticks]int64, len(b.Counts))
	}
	for k, n := range b.Counts {
		a.Counts[k] += n
	}
	a.Transmissions += b.Transmissions
	a.Collided += b.Collided
	for i := range a.ContactN {
		a.ContactN[i] += b.ContactN[i]
		a.ContactD[i] += b.ContactD[i]
	}
	for i := range a.ChanDisc {
		a.ChanDisc[i] += b.ChanDisc[i]
		a.ChanTx[i] += b.ChanTx[i]
		a.ChanColl[i] += b.ChanColl[i]
	}
	return nil
}

// validate checks everything decodable input could violate without
// reference to a scenario: a positive width, keys in [0, horizon/width]
// with positive counts summing to Count, min and max within the horizon
// and keyed by the smallest and largest key, a sum within
// [Count·Min, Count·Max], non-negative counters, and consistent counter
// lengths. The scenario's own layout is checked where it is built
// (finalizePoint).
func (a *Accum) validate() error {
	if a.Horizon < 0 || a.Width < 1 || a.Worst < 0 {
		return fmt.Errorf("layout horizon/width/worst %d/%d/%d out of range", a.Horizon, a.Width, a.Worst)
	}
	if a.Count < 0 || a.Misses < 0 || a.Transmissions < 0 || a.Collided < 0 {
		return errors.New("negative counter")
	}
	var total int64
	lo, hi := timebase.Ticks(-1), timebase.Ticks(-1)
	for k, n := range a.Counts {
		if k < 0 || k > a.Horizon/a.Width {
			return fmt.Errorf("key %d outside [0, %d]", k, a.Horizon/a.Width)
		}
		if n <= 0 {
			return fmt.Errorf("key %d has count %d", k, n)
		}
		if total += n; total < 0 {
			return errors.New("sample counts overflow")
		}
		if lo < 0 || k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	if total != a.Count {
		return fmt.Errorf("keys hold %d samples, count says %d", total, a.Count)
	}
	if a.Count == 0 {
		if a.Min != 0 || a.Max != 0 || a.SumLo != 0 || a.SumHi != 0 {
			return errors.New("an empty accumulator must have zero min, max and sum")
		}
	} else {
		if a.Min < 0 || a.Min > a.Max || a.Max > a.Horizon || a.Min/a.Width != lo || a.Max/a.Width != hi {
			return fmt.Errorf("min %d and max %d disagree with the keys [%d, %d] or the horizon %d", a.Min, a.Max, lo, hi, a.Horizon)
		}
		minHi, minLo := bits.Mul64(uint64(a.Count), uint64(a.Min))
		maxHi, maxLo := bits.Mul64(uint64(a.Count), uint64(a.Max))
		if less128(a.SumHi, a.SumLo, minHi, minLo) || less128(maxHi, maxLo, a.SumHi, a.SumLo) {
			return fmt.Errorf("latency sum outside [count·min, count·max] for %d samples in [%d, %d]", a.Count, a.Min, a.Max)
		}
	}
	wantContact := 0
	if a.Worst > 0 {
		wantContact = len(contactBinEdges)
	}
	if len(a.ContactN) != wantContact || len(a.ContactD) != wantContact {
		return fmt.Errorf("contact bins: got %d/%d, want %d", len(a.ContactN), len(a.ContactD), wantContact)
	}
	if len(a.ChanTx) != len(a.ChanDisc) || len(a.ChanColl) != len(a.ChanDisc) {
		return fmt.Errorf("channel counters: %d/%d/%d lengths differ", len(a.ChanDisc), len(a.ChanTx), len(a.ChanColl))
	}
	for _, counts := range [][]int64{a.ContactN, a.ContactD, a.ChanDisc, a.ChanTx, a.ChanColl} {
		for _, n := range counts {
			if n < 0 {
				return errors.New("negative counter")
			}
		}
	}
	return nil
}

// less128 compares two 128-bit unsigned values given as (hi, lo) halves.
func less128(ah, al, bh, bl uint64) bool { return ah < bh || ah == bh && al < bl }

// aggregate finalizes a point's merged accumulator into its Aggregate.
// Whether the point is quantized decides how keys read back, and nothing
// else: an unquantized point reports exact order statistics and rank-based
// CDF fractions, (rank+1)/pairs; a quantized one reports each statistic's
// bin upper edge clamped to [Min, Max], cumulative-bin CDF fractions, and
// flags itself Streamed with its QuantileResolution — even at width 1.
func (a *Accum) aggregate(sc Scenario, b *built, quantize bool) Aggregate {
	agg := baseAggregate(sc, b, a.Horizon)
	agg.Pairs = int(a.Count + a.Misses)
	agg.Latency = sim.Stats{N: agg.Pairs, Misses: int(a.Misses)}
	agg.Transmissions = int(a.Transmissions)
	agg.Collided = int(a.Collided)
	if a.Transmissions > 0 {
		agg.CollisionRate = float64(a.Collided) / float64(a.Transmissions)
	}
	if quantize {
		agg.Streamed = true
		agg.QuantileResolution = a.Width
	}
	if a.Count > 0 {
		keys := make([]timebase.Ticks, 0, len(a.Counts))
		for k := range a.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		cum := make([]int64, len(keys)) // samples keyed ≤ keys[i]
		var run int64
		for i, k := range keys {
			run += a.Counts[k]
			cum[i] = run
		}
		// at returns the index of the key holding the rank'th (0-based)
		// sample in sorted order, and value the latency that key reports.
		at := func(rank int64) int {
			return sort.Search(len(cum), func(i int) bool { return cum[i] > rank })
		}
		value := func(i int) timebase.Ticks {
			if !quantize {
				return keys[i]
			}
			return min(max((keys[i]+1)*a.Width, a.Min), a.Max)
		}
		quantile := func(q float64) timebase.Ticks { return value(at(int64(q * float64(a.Count-1)))) }

		agg.Latency.Min, agg.Latency.Max = a.Min, a.Max
		sum := float64(a.SumHi)*float64(1<<32)*float64(1<<32) + float64(a.SumLo)
		agg.Latency.Mean = sum / float64(a.Count)
		agg.Latency.P50 = quantile(0.50)
		agg.Latency.P95 = quantile(0.95)
		agg.Latency.P99 = quantile(0.99)

		// The CDF samples the distribution on the quantile grid. Fractions
		// are taken over discovered + missed pairs, so a curve that tops
		// out below 1.0 directly shows the failure mass.
		total := float64(agg.Pairs)
		agg.CDF = make([]CDFPoint, 0, len(cdfQuantiles))
		for _, q := range cdfQuantiles {
			rank := min(max(int64(q*float64(a.Count))-1, 0), a.Count-1)
			i := at(rank)
			frac := float64(rank+1) / total
			if quantize {
				frac = float64(cum[i]) / total
			}
			agg.CDF = append(agg.CDF, CDFPoint{Latency: value(i), Fraction: frac})
		}
	}
	agg.FailureRate = agg.Latency.FailureRate()
	if sc.Churn != nil && a.Worst > 0 {
		agg.ContactBins = contactBinsFromCounters(a.ContactN, a.ContactD)
	}
	switch b.Mode {
	case modeMultiChannel:
		agg.PerChannel = channelStats(b, a.ChanDisc, nil, nil)
	case modeMultiChannelGroup:
		agg.PerChannel = channelStats(b, a.ChanDisc, a.ChanTx, a.ChanColl)
	}
	return agg
}
