package interval

import (
	"fmt"
	"slices"

	"repro/internal/timebase"
)

// Labeled is an interval on the circle annotated with an int64 label. In
// coverage analysis the label is a beacon's delay after the starting
// beacon: the packet-to-packet discovery latency achieved when the initial
// offset falls inside the interval.
type Labeled struct {
	Lo, Length timebase.Ticks // circular placement, reduced mod period
	Label      int64
}

// Segment is an elementary segment of the circle produced by SweepMin and
// SweepKth: all offsets in Iv share the same covering multiplicity Count
// and the same selected label Label. Label is zero (and meaningless) where
// Count is below the selected rank; Count == 0 means the segment is
// uncovered.
type Segment struct {
	Iv    Interval
	Label int64
	Count int
}

// Sweeper runs the labeled sweep that SweepMin and SweepKth are views of.
// It keeps its buffers between calls, so a caller that sweeps repeatedly
// allocates only while they grow. The zero value is ready to use; a
// Sweeper must not be shared between goroutines.
type Sweeper struct {
	ev, buf []Keyed
	active  []int64
}

// An endpoint of a labeled interval is a Keyed record carrying the label.
// Its key is twice the position, plus one for an opening endpoint, so
// sorting by key puts closes before opens at a shared position.
func openAt(at timebase.Ticks, label int64) Keyed  { return Keyed{uint64(at)<<1 | 1, label} }
func closeAt(at timebase.Ticks, label int64) Keyed { return Keyed{uint64(at) << 1, label} }

// Sweep partitions [0, period) into elementary segments, cut at every
// distinct endpoint of the items, and calls visit once per segment in
// increasing order with the labels of the items covering it, sorted
// ascending (empty where nothing covers it). labels is valid only during
// the call and must not be modified. An item's Lo is reduced mod period,
// a Length of period or more covers the whole circle, and items with
// non-positive Length are ignored.
//
// Each item contributes two endpoints, which are sorted once, by an LSD
// radix sort on their integer positions with one pass per significant
// byte of period; each endpoint then inserts or removes its label in a
// sorted active list. For n items that overlap at most d deep, a sweep
// costs O(n·(⌈log₂₅₆ period⌉ + d)).
func (s *Sweeper) Sweep(period timebase.Ticks, items []Labeled, visit func(iv Interval, labels []int64)) {
	if period <= 0 {
		panic(fmt.Sprintf("interval: sweep with non-positive period %d", period))
	}
	ev := slices.Grow(s.ev[:0], 2*len(items))
	active := s.active[:0]
	for _, it := range items {
		if it.Length <= 0 {
			continue
		}
		lo := it.Lo.Mod(period)
		hi := lo + min(it.Length, period)
		if hi > period {
			// Wraps: the item covers 0 as the sweep starts, closes at
			// hi − period and opens again at lo.
			k, _ := slices.BinarySearch(active, it.Label)
			active = slices.Insert(active, k, it.Label)
			hi -= period
		}
		ev = append(ev, openAt(lo, it.Label), closeAt(hi, it.Label))
	}
	ev, s.buf = RadixSort(ev, s.buf, uint64(period)<<1|1)

	var prev timebase.Ticks
	for i := 0; i < len(ev); {
		at := timebase.Ticks(ev[i].Key >> 1)
		if at > prev {
			visit(Interval{prev, at}, active)
			prev = at
		}
		for ; i < len(ev) && timebase.Ticks(ev[i].Key>>1) == at; i++ {
			k, _ := slices.BinarySearch(active, ev[i].Val)
			if ev[i].Key&1 == 1 {
				active = slices.Insert(active, k, ev[i].Val)
			} else {
				active = slices.Delete(active, k, k+1)
			}
		}
	}
	if prev < period {
		visit(Interval{prev, period}, active)
	}
	s.ev, s.active = ev, active
}

// Keyed is one record of RadixSort: an unsigned sort key and the value it
// carries.
type Keyed struct {
	Key uint64
	Val int64
}

// RadixSort sorts ev by Key with a stable LSD radix sort, one byte per
// pass up to the highest byte of maxKey (no key may exceed it), skipping
// bytes every key shares. buf is scratch space; the sorted records and the
// spare buffer come back for reuse. Besides the sweep, the simulation
// kernel orders its packets with it.
func RadixSort(ev, buf []Keyed, maxKey uint64) (sorted, spare []Keyed) {
	if len(ev) < 2 {
		return ev, buf
	}
	buf = slices.Grow(buf[:0], len(ev))[:len(ev)]
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		var count [256]int
		for _, e := range ev {
			count[byte(e.Key>>shift)]++
		}
		if count[byte(ev[0].Key>>shift)] == len(ev) {
			continue
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, e := range ev {
			d := byte(e.Key >> shift)
			buf[count[d]] = e
			count[d]++
		}
		ev, buf = buf, ev
	}
	return ev, buf
}

// SweepMin partitions [0, period) into elementary segments. For every
// segment it reports how many of the labeled intervals cover it and the
// minimum label among them. covered is true iff every point of the circle
// is covered at least once.
//
// It is the rank-1 view of Sweeper.Sweep and costs what one sweep does.
// It is the workhorse behind exact worst-case-latency extraction: max over
// segments of the minimal label is the worst-case packet-to-packet latency
// (Section 4.1).
func SweepMin(period timebase.Ticks, items []Labeled) (segs []Segment, covered bool) {
	return SweepKth(period, items, 1)
}

// SweepKth is SweepMin generalized to redundant coverage: for every
// elementary segment it reports the k-th smallest label among covering
// intervals (k = 1 reproduces SweepMin's labels). covered is true iff every
// point is covered at least k times. Appendix B of the paper uses this to
// compute L(Pf): the worst-case time until an offset has been covered by Q
// distinct beacons. The sweep hands each segment its sorted labels, so the
// k-th is a lookup.
func SweepKth(period timebase.Ticks, items []Labeled, k int) (segs []Segment, covered bool) {
	if k < 1 {
		panic(fmt.Sprintf("interval: SweepKth with k=%d", k))
	}
	covered = true
	var s Sweeper
	s.Sweep(period, items, func(iv Interval, labels []int64) {
		seg := Segment{Iv: iv, Count: len(labels)}
		if seg.Count >= k {
			seg.Label = labels[k-1]
		} else {
			covered = false
		}
		segs = append(segs, seg)
	})
	return segs, covered
}
