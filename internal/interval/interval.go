// Package interval implements sets of half-open intervals on a circle.
//
// The paper's coverage arguments (Section 4.1) all live on the circle
// [0, TC): an initial offset Φ1 is a point on this circle, each beacon's
// set of "successful" offsets Ωi is a union of intervals on it, and a
// protocol is deterministic iff the union of all Ωi covers the full circle.
// This package provides the exact integer interval arithmetic those
// arguments need: normalized unions, measures, gap enumeration, and a
// labeled sweep that reports every elementary segment's sorted covering
// labels, from which worst-case discovery latencies are read.
//
// All intervals are half-open [Lo, Hi): a beacon sent exactly at the end of
// a reception window is not received. Endpoints are timebase.Ticks.
package interval

import (
	"fmt"
	"sort"

	"repro/internal/timebase"
)

// Interval is a non-wrapping half-open interval [Lo, Hi) with Lo ≤ Hi.
type Interval struct {
	Lo, Hi timebase.Ticks
}

// Len returns the length Hi − Lo.
func (iv Interval) Len() timebase.Ticks { return iv.Hi - iv.Lo }

// Empty reports whether the interval has zero length.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether t lies in [Lo, Hi).
func (iv Interval) Contains(t timebase.Ticks) bool { return t >= iv.Lo && t < iv.Hi }

// String renders the interval as "[lo, hi)".
func (iv Interval) String() string { return fmt.Sprintf("[%d, %d)", iv.Lo, iv.Hi) }

// Set is a canonical set of disjoint, sorted intervals within [0, period).
// The zero value is not usable; construct with NewSet.
type Set struct {
	period timebase.Ticks
	ivs    []Interval // sorted by Lo, pairwise disjoint, non-adjacent
}

// NewSet returns an empty set on the circle [0, period). period must be > 0.
func NewSet(period timebase.Ticks) *Set {
	if period <= 0 {
		panic(fmt.Sprintf("interval: NewSet with non-positive period %d", period))
	}
	return &Set{period: period}
}

// Period returns the circumference of the circle the set lives on.
func (s *Set) Period() timebase.Ticks { return s.period }

// Add inserts the circular interval starting at lo (any integer, reduced mod
// period) with the given length. Lengths ≥ period cover the whole circle;
// non-positive lengths are ignored.
func (s *Set) Add(lo, length timebase.Ticks) {
	if length <= 0 {
		return
	}
	if length >= s.period {
		s.ivs = []Interval{{0, s.period}}
		return
	}
	start := lo.Mod(s.period)
	end := start + length
	if end <= s.period {
		s.insert(Interval{start, end})
	} else {
		// Wraps: split into the tail and the head of the circle.
		s.insert(Interval{start, s.period})
		s.insert(Interval{0, end - s.period})
	}
}

// insert merges a non-wrapping interval into the canonical representation.
func (s *Set) insert(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find the first existing interval with Hi >= iv.Lo (merge candidates).
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi >= iv.Lo })
	j := i
	merged := iv
	for j < len(s.ivs) && s.ivs[j].Lo <= merged.Hi {
		if s.ivs[j].Lo < merged.Lo {
			merged.Lo = s.ivs[j].Lo
		}
		if s.ivs[j].Hi > merged.Hi {
			merged.Hi = s.ivs[j].Hi
		}
		j++
	}
	// Replace s.ivs[i:j] with merged.
	out := make([]Interval, 0, len(s.ivs)-(j-i)+1)
	out = append(out, s.ivs[:i]...)
	out = append(out, merged)
	out = append(out, s.ivs[j:]...)
	s.ivs = out
}

// Measure returns the total covered length.
func (s *Set) Measure() timebase.Ticks {
	var m timebase.Ticks
	for _, iv := range s.ivs {
		m += iv.Len()
	}
	return m
}

// IsFull reports whether the set covers the entire circle.
func (s *Set) IsFull() bool { return s.Measure() == s.period }

// IsEmpty reports whether the set is empty.
func (s *Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Contains reports whether point t (reduced mod period) is covered.
func (s *Set) Contains(t timebase.Ticks) bool {
	p := t.Mod(s.period)
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi > p })
	return i < len(s.ivs) && s.ivs[i].Contains(p)
}

// Intervals returns a copy of the canonical interval list.
func (s *Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Gaps returns the uncovered intervals, linearized (a gap wrapping the origin
// is reported as two pieces: [lastHi, period) and [0, firstLo)).
func (s *Set) Gaps() []Interval {
	if len(s.ivs) == 0 {
		return []Interval{{0, s.period}}
	}
	var gaps []Interval
	if s.ivs[0].Lo > 0 {
		gaps = append(gaps, Interval{0, s.ivs[0].Lo})
	}
	for i := 1; i < len(s.ivs); i++ {
		gaps = append(gaps, Interval{s.ivs[i-1].Hi, s.ivs[i].Lo})
	}
	if last := s.ivs[len(s.ivs)-1].Hi; last < s.period {
		gaps = append(gaps, Interval{last, s.period})
	}
	return gaps
}

// UnionWith adds every interval of o (which must share the same period).
func (s *Set) UnionWith(o *Set) {
	if o.period != s.period {
		panic(fmt.Sprintf("interval: union of sets with periods %d and %d", s.period, o.period))
	}
	for _, iv := range o.ivs {
		s.insert(iv)
	}
}

// Complement returns the set of uncovered points.
func (s *Set) Complement() *Set {
	c := NewSet(s.period)
	for _, g := range s.Gaps() {
		c.insert(g)
	}
	return c
}

// Equal reports whether two sets cover exactly the same points.
func (s *Set) Equal(o *Set) bool {
	if s.period != o.period || len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet(s.period)
	c.ivs = append([]Interval(nil), s.ivs...)
	return c
}

// String renders the set as a list of intervals.
func (s *Set) String() string {
	return fmt.Sprintf("Set(period=%d, %v)", s.period, s.ivs)
}
