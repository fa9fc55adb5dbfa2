package interval

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/timebase"
)

// referenceSweepMin is the comparison-sorted sweep SweepMin used to be:
// events sorted with sort.Slice and a sorted multiset of active labels.
// It stays here as the reference the radix-sorted Sweeper is checked
// against, segment for segment.
func referenceSweepMin(period timebase.Ticks, items []Labeled) (segs []Segment, covered bool) {
	if period <= 0 {
		panic(fmt.Sprintf("interval: SweepMin with non-positive period %d", period))
	}
	type event struct {
		at    timebase.Ticks
		delta int // +1 open, −1 close
		label int64
	}
	var events []event
	for _, it := range items {
		if it.Length <= 0 {
			continue
		}
		length := it.Length
		if length > period {
			length = period
		}
		lo := it.Lo.Mod(period)
		hi := lo + length
		if hi <= period {
			events = append(events,
				event{lo, +1, it.Label}, event{hi, -1, it.Label})
		} else {
			events = append(events,
				event{lo, +1, it.Label}, event{period, -1, it.Label},
				event{0, +1, it.Label}, event{hi - period, -1, it.Label})
		}
	}
	if len(events) == 0 {
		return []Segment{{Iv: Interval{0, period}, Count: 0}}, false
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Closes before opens at the same point keeps half-open semantics.
		return events[i].delta < events[j].delta
	})

	var active minMultiset
	covered = true
	var prev timebase.Ticks
	flush := func(upTo timebase.Ticks) {
		if upTo <= prev {
			return
		}
		seg := Segment{Iv: Interval{prev, upTo}, Count: active.size()}
		if seg.Count == 0 {
			covered = false
		} else {
			seg.Label = active.min()
		}
		segs = append(segs, seg)
		prev = upTo
	}
	for _, ev := range events {
		flush(ev.at)
		if ev.delta > 0 {
			active.add(ev.label)
		} else {
			active.remove(ev.label)
		}
	}
	flush(period)
	return segs, covered
}

// referenceSweepKth is the SweepKth that re-scanned every item for the
// k-th label of each segment (kthLabelAt).
func referenceSweepKth(period timebase.Ticks, items []Labeled, k int) (segs []Segment, covered bool) {
	if k < 1 {
		panic(fmt.Sprintf("interval: SweepKth with k=%d", k))
	}
	all, _ := referenceSweepMin(period, items)
	covered = true
	for _, seg := range all {
		if seg.Count < k {
			covered = false
			segs = append(segs, Segment{Iv: seg.Iv, Count: seg.Count})
			continue
		}
		segs = append(segs, Segment{Iv: seg.Iv, Count: seg.Count, Label: kthLabelAt(period, items, seg.Iv.Lo, k)})
	}
	return segs, covered
}

// kthLabelAt returns the k-th smallest label among intervals covering point
// p (which must be covered at least k times).
func kthLabelAt(period timebase.Ticks, items []Labeled, p timebase.Ticks, k int) int64 {
	var labels []int64
	for _, it := range items {
		if it.Length <= 0 {
			continue
		}
		length := it.Length
		if length > period {
			length = period
		}
		lo := it.Lo.Mod(period)
		d := (p - lo).Mod(period)
		if d < length {
			labels = append(labels, it.Label)
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	return labels[k-1]
}

// minMultiset is a small multiset of int64 values supporting min().
type minMultiset struct {
	vals []int64
}

func (m *minMultiset) add(v int64) {
	i := sort.Search(len(m.vals), func(k int) bool { return m.vals[k] >= v })
	m.vals = append(m.vals, 0)
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = v
}

func (m *minMultiset) remove(v int64) {
	i := sort.Search(len(m.vals), func(k int) bool { return m.vals[k] >= v })
	if i < len(m.vals) && m.vals[i] == v {
		m.vals = append(m.vals[:i], m.vals[i+1:]...)
		return
	}
	panic(fmt.Sprintf("interval: removing absent label %d", v))
}

func (m *minMultiset) size() int { return len(m.vals) }

func (m *minMultiset) min() int64 {
	if len(m.vals) == 0 {
		panic("interval: min of empty multiset")
	}
	return m.vals[0]
}

// TestSweepMatchesReference: SweepMin and SweepKth return exactly the
// reference's segments, over periods that need one to four radix passes,
// items that wrap, exceed the period or are empty, and repeated labels.
// One Sweeper serves every case, so buffer reuse is covered too.
func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sw Sweeper
	for trial := 0; trial < 3000; trial++ {
		period := timebase.Ticks(rng.Int63n(1<<(4+rng.Intn(28)))) + 1
		items := make([]Labeled, rng.Intn(24))
		for i := range items {
			items[i] = Labeled{
				Lo:     timebase.Ticks(rng.Int63n(3*int64(period))) - period,
				Length: timebase.Ticks(rng.Int63n(int64(period)+3)) - 1,
				Label:  rng.Int63n(12),
			}
		}
		k := rng.Intn(3) + 1
		gotMin, gotCov := SweepMin(period, items)
		wantMin, wantCov := referenceSweepMin(period, items)
		if gotCov != wantCov || !reflect.DeepEqual(gotMin, wantMin) {
			t.Fatalf("period %d items %v: SweepMin %v %v, reference %v %v", period, items, gotMin, gotCov, wantMin, wantCov)
		}
		gotK, gotKCov := SweepKth(period, items, k)
		wantK, wantKCov := referenceSweepKth(period, items, k)
		if gotKCov != wantKCov || !reflect.DeepEqual(gotK, wantK) {
			t.Fatalf("period %d k %d items %v: SweepKth %v %v, reference %v %v", period, k, items, gotK, gotKCov, wantK, wantKCov)
		}
		// The raw sweep reports the same segments with every covering
		// label, sorted.
		i := 0
		sw.Sweep(period, items, func(iv Interval, labels []int64) {
			if iv != wantMin[i].Iv || len(labels) != wantMin[i].Count ||
				(len(labels) > 0 && labels[0] != wantMin[i].Label) ||
				!sort.SliceIsSorted(labels, func(a, b int) bool { return labels[a] < labels[b] }) {
				t.Fatalf("period %d items %v: segment %d = %v %v, reference %+v", period, items, i, iv, labels, wantMin[i])
			}
			i++
		})
		if i != len(wantMin) {
			t.Fatalf("period %d items %v: %d segments, reference %d", period, items, i, len(wantMin))
		}
	}
}

// TestRadixSortMatchesStableSort: RadixSort orders records exactly as a
// stable comparison sort by key does, for keys spanning one to eight
// bytes, with many equal keys, on reused buffers.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ev, buf []Keyed
	for trial := 0; trial < 2000; trial++ {
		maxKey := rng.Uint64() >> rng.Intn(64)
		ev = ev[:0]
		for i := rng.Intn(300); i > 0; i-- {
			key := rng.Uint64()
			if maxKey < math.MaxUint64 {
				key %= maxKey + 1
			}
			if rng.Intn(4) == 0 && len(ev) > 0 {
				key = ev[rng.Intn(len(ev))].Key
			}
			ev = append(ev, Keyed{Key: key, Val: int64(len(ev))})
		}
		want := slices.Clone(ev)
		slices.SortStableFunc(want, func(a, b Keyed) int { return cmp.Compare(a.Key, b.Key) })
		ev, buf = RadixSort(ev, buf, maxKey)
		if !slices.Equal(ev, want) {
			t.Fatalf("trial %d (max key %#x): radix order %v, stable sort %v", trial, maxKey, ev, want)
		}
	}
}

// checkSweepAgainstReference requires SweepMin, SweepKth and the raw sweep
// on sw to give exactly the reference's segments for items.
func checkSweepAgainstReference(t *testing.T, sw *Sweeper, period timebase.Ticks, items []Labeled, k int) {
	t.Helper()
	gotMin, gotCov := SweepMin(period, items)
	wantMin, wantCov := referenceSweepMin(period, items)
	if gotCov != wantCov || !reflect.DeepEqual(gotMin, wantMin) {
		t.Fatalf("period %d items %v: SweepMin %v %v, reference %v %v", period, items, gotMin, gotCov, wantMin, wantCov)
	}
	gotK, gotKCov := SweepKth(period, items, k)
	wantK, wantKCov := referenceSweepKth(period, items, k)
	if gotKCov != wantKCov || !reflect.DeepEqual(gotK, wantK) {
		t.Fatalf("period %d k %d items %v: SweepKth %v %v, reference %v %v", period, k, items, gotK, gotKCov, wantK, wantKCov)
	}
	// Every covering label, sorted: the reference's count, minimum and
	// k-th label.
	i := 0
	sw.Sweep(period, items, func(iv Interval, labels []int64) {
		if iv != wantMin[i].Iv || len(labels) != wantMin[i].Count ||
			(len(labels) > 0 && labels[0] != wantMin[i].Label) ||
			(len(labels) >= k && labels[k-1] != wantK[i].Label) ||
			!slices.IsSorted(labels) {
			t.Fatalf("period %d items %v: segment %d = %v %v, reference %+v", period, items, i, iv, labels, wantMin[i])
		}
		i++
	})
	if i != len(wantMin) {
		t.Fatalf("period %d items %v: %d segments, reference %d", period, items, i, len(wantMin))
	}
}

// deepItems draws n items whose endpoints fall on a grid of g points of
// the circle, so they overlap deeply and share endpoints: Lo anywhere in
// [−period, 2·period), lengths from empty through wrapping to past the
// whole circle, and labels below n/8+1, so many repeat.
func deepItems(rng *rand.Rand, period timebase.Ticks, n, g int) []Labeled {
	step := max(period/timebase.Ticks(g), 1)
	items := make([]Labeled, n)
	for i := range items {
		items[i] = Labeled{
			Lo:     timebase.Ticks(rng.Intn(3*g)-g) * step,
			Length: timebase.Ticks(rng.Intn(g+2))*step - timebase.Ticks(rng.Intn(2)),
			Label:  rng.Int63n(int64(n/8 + 1)),
		}
	}
	return items
}

// TestSweepMatchesReferenceDeep: hundreds of items on a coarse grid keep
// dozens of labels active and many closes pending on the heap at once,
// with shared endpoints, repeated labels, wrapping items and items that
// cover the whole circle. One Sweeper serves every case, so a deep sweep
// reuses the buffers a shallow one left and vice versa.
func TestSweepMatchesReferenceDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var sw Sweeper
	var maxDepth int
	for trial := 0; trial < 120; trial++ {
		period := timebase.Ticks(rng.Int63n(1<<(4+rng.Intn(30)))) + 1
		items := deepItems(rng, period, 100+rng.Intn(500), 2+rng.Intn(40))
		checkSweepAgainstReference(t, &sw, period, items, 1+rng.Intn(8))
		sw.Sweep(period, items, func(_ Interval, labels []int64) { maxDepth = max(maxDepth, len(labels)) })
	}
	if maxDepth < 200 {
		t.Errorf("deepest segment holds %d labels; the items no longer overlap deeply", maxDepth)
	}
}

// FuzzSweepMatchesReference: the sweep agrees with the reference on any
// item set the fuzzer can encode. The first two bytes pick the period's
// size and the endpoint grid, the third the rank k, and every further
// three bytes one item: its start and length on the grid and its label.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 2, 0, 3, 1, 1, 5, 3, 2})
	f.Add([]byte{20, 7, 2, 0, 9, 0, 0, 9, 0, 3, 2, 1, 14, 8, 1, 5, 1, 2})
	f.Add([]byte{60, 15, 1, 200, 17, 4, 33, 255, 4, 90, 3, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		period := timebase.Ticks(1) << (data[0] % 61)
		period += timebase.Ticks(data[0]) % period
		g := 1 + int(data[1]%32)
		k := 1 + int(data[2]%4)
		step := max(period/timebase.Ticks(g), 1)
		var items []Labeled
		for rest := data[3:]; len(rest) >= 3 && len(items) < 256; rest = rest[3:] {
			items = append(items, Labeled{
				Lo:     timebase.Ticks(int(rest[0])%(3*g)-g) * step,
				Length: timebase.Ticks(int(rest[1]>>1)%(g+2))*step - timebase.Ticks(rest[1]&1),
				Label:  int64(rest[2] % 16),
			})
		}
		var sw Sweeper
		checkSweepAgainstReference(t, &sw, period, items, k)
	})
}
