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
	// opens and buf are the opening endpoints and the radix sort's spare,
	// closes the heap of pending closes: three regions of one array, until
	// the heap outgrows its region.
	opens, buf, closes []Keyed
	active             []int64
}

// sweepDepth is the overlap depth a fresh Sweeper makes room for up front.
const sweepDepth = 64

// grow makes room for n items: the opens and the sort's spare hold all of
// them, the close heap and the active labels sweepDepth, and grow further
// only on deeper overlaps. So a sweep on a fresh Sweeper allocates twice
// unless its items overlap more than sweepDepth deep.
func (s *Sweeper) grow(n int) {
	if cap(s.opens) >= n && cap(s.buf) >= n {
		return
	}
	d := max(cap(s.closes), sweepDepth)
	block := make([]Keyed, 2*n+d)
	s.opens, s.buf, s.closes = block[:0:n], block[n:n:2*n], block[2*n:2*n]
	if cap(s.active) < d {
		s.active = make([]int64, 0, d)
	}
}

// Sweep partitions [0, period) into elementary segments, cut at every
// distinct endpoint of the items, and calls visit once per segment in
// increasing order with the labels of the items covering it, sorted
// ascending (empty where nothing covers it). labels is valid only during
// the call and must not be modified. An item's Lo is reduced mod period,
// a Length of period or more covers the whole circle, and items with
// non-positive Length are ignored. Reducing costs a division only for an
// item whose Lo lies outside [0, period).
//
// Only the n opening endpoints are sorted, once, by an LSD radix sort on
// their positions with one pass per significant byte of period. An item
// that wraps past the origin covers 0 as the sweep starts, so its label is
// active from there to its first close. Each open inserts its label in a
// sorted active list and pushes its close on a min-heap keyed by position;
// at every position the due closes leave the list before the opens there
// enter it, which keeps the intervals half-open. For n items that overlap
// at most d deep, a sweep costs O(n·(⌈log₂₅₆ period⌉ + log d + d)).
func (s *Sweeper) Sweep(period timebase.Ticks, items []Labeled, visit func(iv Interval, labels []int64)) {
	if period <= 0 {
		panic(fmt.Sprintf("interval: sweep with non-positive period %d", period))
	}
	s.grow(len(items))
	opens, active, closes := s.opens[:0], s.active[:0], s.closes[:0]
	for i, it := range items {
		if it.Length <= 0 {
			continue
		}
		lo := it.Lo
		if lo < 0 || lo >= period {
			lo = lo.Mod(period)
		}
		if rest := period - lo; min(it.Length, period) > rest {
			// Wraps: the item covers 0 as the sweep starts, closes at
			// lo + length − period and opens again at lo.
			k, _ := slices.BinarySearch(active, it.Label)
			active = slices.Insert(active, k, it.Label)
			closes = pushClose(closes, Keyed{uint64(min(it.Length, period) - rest), it.Label})
		}
		opens = append(opens, Keyed{uint64(lo), int64(i)})
	}
	opens, s.buf = RadixSort(opens, s.buf, uint64(period-1))

	var prev timebase.Ticks
	for i := 0; ; {
		at := period
		if i < len(opens) {
			at = timebase.Ticks(opens[i].Key)
		}
		if len(closes) > 0 {
			at = min(at, timebase.Ticks(closes[0].Key))
		}
		if at == period {
			break
		}
		if at > prev {
			visit(Interval{prev, at}, active)
			prev = at
		}
		for len(closes) > 0 && timebase.Ticks(closes[0].Key) == at {
			k, _ := slices.BinarySearch(active, closes[0].Val)
			active = slices.Delete(active, k, k+1)
			closes = popClose(closes)
		}
		for ; i < len(opens) && timebase.Ticks(opens[i].Key) == at; i++ {
			it := &items[opens[i].Val]
			k, _ := slices.BinarySearch(active, it.Label)
			active = slices.Insert(active, k, it.Label)
			// A close at the period ends the sweep, so it is not kept.
			if length := min(it.Length, period); length < period-at {
				closes = pushClose(closes, Keyed{uint64(at + length), it.Label})
			}
		}
	}
	if prev < period {
		visit(Interval{prev, period}, active)
	}
	s.opens, s.active, s.closes = opens, active, closes
}

// pushClose adds c to the min-heap h of closes, ordered by Key.
func pushClose(h []Keyed, c Keyed) []Keyed {
	i := len(h)
	h = append(h, c)
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Key <= c.Key {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = c
	return h
}

// popClose removes the least close from the min-heap h: the last slot
// fills the root and sinks towards the smaller child.
func popClose(h []Keyed) []Keyed {
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].Key < h[c].Key {
			c++
		}
		if last.Key <= h[c].Key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return h
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
