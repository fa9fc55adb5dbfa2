package engine

import (
	"math/bits"
	"sort"

	"repro/internal/sim"
	"repro/internal/timebase"
)

// The engine's previous two aggregation paths, kept only as references for
// the single accumulator (accum.go) to be compared against: refAggregateExact
// pools trial-ordered outputs, sorts them and runs sim.CollectSorted and the
// rank-based empirical CDF; refStreamAccum is the fixed 4096-bin histogram
// accumulator that large points used.

// refTrial is one trial's contribution, as the previous executor stored it.
type refTrial struct {
	samples                 []timebase.Ticks
	misses                  int
	transmissions, collided int
	contacts                []sim.Contact
	channel                 int               // discovery channel (multi-channel pair kind); -1 otherwise
	perChannel              []sim.ChannelLoad // per-channel traffic (multi-node multi-channel kinds)
	chanDisc                []int             // per-channel discovery counts (multi-node multi-channel kinds)
}

// refAggregateExact is the previous exact finalizer over trial-ordered
// outputs.
func refAggregateExact(sc Scenario, b *built, horizon timebase.Ticks, outputs []refTrial) Aggregate {
	var samples []timebase.Ticks
	var misses, tx, coll int64
	for i := range outputs {
		samples = append(samples, outputs[i].samples...)
		misses += int64(outputs[i].misses)
		tx += int64(outputs[i].transmissions)
		coll += int64(outputs[i].collided)
	}
	var contactN, contactD []int64
	if sc.Churn != nil && b.WorstTwoWay > 0 {
		contactN = make([]int64, len(contactBinEdges))
		contactD = make([]int64, len(contactBinEdges))
		worst := float64(b.WorstTwoWay)
		for i := range outputs {
			for _, c := range outputs[i].contacts {
				idx := contactBinIndex(float64(c.Overlap) / worst)
				contactN[idx]++
				if c.Discovered {
					contactD[idx]++
				}
			}
		}
	}
	var chanDisc, chanTx, chanColl []int64
	switch b.Mode {
	case modeMultiChannel:
		chanDisc = make([]int64, b.MC.Channels)
		for i := range outputs {
			if c := outputs[i].channel; c >= 0 && c < len(chanDisc) {
				chanDisc[c]++
			}
		}
	case modeMultiChannelGroup:
		chanDisc = make([]int64, b.MC.Channels)
		chanTx = make([]int64, b.MC.Channels)
		chanColl = make([]int64, b.MC.Channels)
		for i := range outputs {
			for c, n := range outputs[i].chanDisc {
				chanDisc[c] += int64(n)
			}
			for c, l := range outputs[i].perChannel {
				chanTx[c] += int64(l.Transmissions)
				chanColl[c] += int64(l.Collided)
			}
		}
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	agg := baseAggregate(sc, b, horizon)
	agg.Pairs = len(samples) + int(misses)
	agg.Latency = sim.CollectSorted(samples, int(misses))
	agg.Transmissions = int(tx)
	agg.Collided = int(coll)
	agg.FailureRate = agg.Latency.FailureRate()
	if tx > 0 {
		agg.CollisionRate = float64(coll) / float64(tx)
	}
	agg.CDF = refEmpiricalCDF(samples, int(misses))
	if sc.Churn != nil && b.WorstTwoWay > 0 {
		agg.ContactBins = contactBinsFromCounters(contactN, contactD)
	}
	switch b.Mode {
	case modeMultiChannel:
		agg.PerChannel = channelStats(b, chanDisc, nil, nil)
	case modeMultiChannelGroup:
		agg.PerChannel = channelStats(b, chanDisc, chanTx, chanColl)
	}
	return agg
}

func refEmpiricalCDF(sorted []timebase.Ticks, misses int) []CDFPoint {
	if len(sorted) == 0 {
		return nil
	}
	total := float64(len(sorted) + misses)
	pts := make([]CDFPoint, 0, len(cdfQuantiles))
	for _, q := range cdfQuantiles {
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		pts = append(pts, CDFPoint{
			Latency:  sorted[idx],
			Fraction: float64(idx+1) / total,
		})
	}
	return pts
}

// refStreamAccum is the previous fixed-bin streaming accumulator.
type refStreamAccum struct {
	horizon  timebase.Ticks
	binWidth timebase.Ticks
	worst    timebase.Ticks

	count        int64
	misses       int64
	sumLo, sumHi uint64
	min, max     timebase.Ticks

	bins []int64

	transmissions, collided int64

	contactN, contactD []int64

	chanDisc []int64
	chanTx   []int64
	chanColl []int64
}

func newRefStreamAccum(horizon, worst timebase.Ticks, channels int) *refStreamAccum {
	w := timebase.CeilDiv(horizon+1, streamBins)
	if w < 1 {
		w = 1
	}
	return &refStreamAccum{
		horizon:  horizon,
		binWidth: w,
		worst:    worst,
		bins:     make([]int64, streamBins),
		contactN: make([]int64, len(contactBinEdges)),
		contactD: make([]int64, len(contactBinEdges)),
		chanDisc: make([]int64, channels),
		chanTx:   make([]int64, channels),
		chanColl: make([]int64, channels),
	}
}

func (a *refStreamAccum) addSample(lat timebase.Ticks) {
	if a.count == 0 || lat < a.min {
		a.min = lat
	}
	if a.count == 0 || lat > a.max {
		a.max = lat
	}
	a.count++
	var carry uint64
	a.sumLo, carry = bits.Add64(a.sumLo, uint64(lat), 0)
	a.sumHi += carry
	b := int(lat / a.binWidth)
	if b < 0 {
		b = 0
	}
	if b >= len(a.bins) {
		b = len(a.bins) - 1
	}
	a.bins[b]++
}

func (a *refStreamAccum) absorb(out refTrial) {
	for _, s := range out.samples {
		a.addSample(s)
	}
	a.misses += int64(out.misses)
	a.transmissions += int64(out.transmissions)
	a.collided += int64(out.collided)
	if a.worst > 0 {
		for _, c := range out.contacts {
			idx := contactBinIndex(float64(c.Overlap) / float64(a.worst))
			a.contactN[idx]++
			if c.Discovered {
				a.contactD[idx]++
			}
		}
	}
	if c := out.channel; c >= 0 && c < len(a.chanDisc) {
		a.chanDisc[c]++
	}
	for c, n := range out.chanDisc {
		if c < len(a.chanDisc) {
			a.chanDisc[c] += int64(n)
		}
	}
	for c, l := range out.perChannel {
		if c < len(a.chanTx) {
			a.chanTx[c] += int64(l.Transmissions)
			a.chanColl[c] += int64(l.Collided)
		}
	}
}

func (a *refStreamAccum) binUpper(b int) timebase.Ticks {
	v := timebase.Ticks(b+1) * a.binWidth
	if v > a.max {
		v = a.max
	}
	if v < a.min {
		v = a.min
	}
	return v
}

func (a *refStreamAccum) rankBin(rank int64) int {
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for b, n := range a.bins {
		cum += n
		if cum > rank {
			return b
		}
	}
	return len(a.bins) - 1
}

func (a *refStreamAccum) quantile(q float64) timebase.Ticks {
	if a.count == 0 {
		return 0
	}
	return a.binUpper(a.rankBin(int64(q * float64(a.count-1))))
}

func (a *refStreamAccum) stats() sim.Stats {
	st := sim.Stats{N: int(a.count + a.misses), Misses: int(a.misses)}
	if a.count == 0 {
		return st
	}
	st.Min = a.min
	st.Max = a.max
	sum := float64(a.sumHi)*float64(1<<32)*float64(1<<32) + float64(a.sumLo)
	st.Mean = sum / float64(a.count)
	st.P50 = a.quantile(0.50)
	st.P95 = a.quantile(0.95)
	st.P99 = a.quantile(0.99)
	return st
}

func (a *refStreamAccum) cdf() []CDFPoint {
	if a.count == 0 {
		return nil
	}
	total := float64(a.count + a.misses)
	pts := make([]CDFPoint, 0, len(cdfQuantiles))
	var cum int64
	b := -1
	for _, q := range cdfQuantiles {
		idx := int64(q*float64(a.count)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= a.count {
			idx = a.count - 1
		}
		target := a.rankBin(idx)
		for b < target {
			b++
			cum += a.bins[b]
		}
		pts = append(pts, CDFPoint{
			Latency:  a.binUpper(target),
			Fraction: float64(cum) / total,
		})
	}
	return pts
}

// refAggregateStream is the previous streaming finalizer.
func refAggregateStream(sc Scenario, b *built, horizon timebase.Ticks, acc *refStreamAccum) Aggregate {
	agg := baseAggregate(sc, b, horizon)
	agg.Pairs = int(acc.count + acc.misses)
	agg.Latency = acc.stats()
	agg.Transmissions = int(acc.transmissions)
	agg.Collided = int(acc.collided)
	agg.Streamed = true
	agg.QuantileResolution = acc.binWidth
	agg.FailureRate = agg.Latency.FailureRate()
	if acc.transmissions > 0 {
		agg.CollisionRate = float64(acc.collided) / float64(acc.transmissions)
	}
	agg.CDF = acc.cdf()
	if sc.Churn != nil && acc.worst > 0 {
		agg.ContactBins = contactBinsFromCounters(acc.contactN, acc.contactD)
	}
	switch b.Mode {
	case modeMultiChannel:
		agg.PerChannel = channelStats(b, acc.chanDisc, nil, nil)
	case modeMultiChannelGroup:
		agg.PerChannel = channelStats(b, acc.chanDisc, acc.chanTx, acc.chanColl)
	}
	return agg
}
