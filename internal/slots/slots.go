// Package slots analyzes slotted neighbor-discovery schedules purely in
// the slot domain, the way the slotted-protocol literature does: time is a
// sequence of equal slots, a schedule is a set of active slot indices
// repeating with some period, and discovery happens in the first slot
// where both devices are active (slot alignment is assumed; the paper's
// Figure 5 and packages protocols/coverage handle what alignment hides).
//
// The package serves as an independent verification path: its worst-case
// slot counts are computed combinatorially, with no shared code with the
// tick-domain coverage engine, and the test suites of both packages
// cross-validate each other via latency = slots × slot length. The
// engine's "slot-*" protocol kinds pair Analyze with the slot-grid
// Monte-Carlo trials of package sim.
package slots

import (
	"fmt"

	"repro/internal/diffset"
	"repro/internal/gf"
)

// Schedule is a slot-domain schedule: the sorted active slot indices
// within a repeating period.
type Schedule struct {
	Period int
	Active []int
}

// Validate checks the structural invariants.
func (s Schedule) Validate() error {
	if s.Period < 1 {
		return fmt.Errorf("slots: period %d invalid", s.Period)
	}
	if len(s.Active) == 0 {
		return fmt.Errorf("slots: no active slots")
	}
	prev := -1
	for _, a := range s.Active {
		if a < 0 || a >= s.Period {
			return fmt.Errorf("slots: slot %d outside [0, %d)", a, s.Period)
		}
		if a <= prev {
			return fmt.Errorf("slots: active slots not strictly increasing")
		}
		prev = a
	}
	return nil
}

// DutyCycle returns the fraction of active slots.
func (s Schedule) DutyCycle() float64 {
	return float64(len(s.Active)) / float64(s.Period)
}

// activeSet returns a boolean lookup table.
func (s Schedule) activeSet() []bool {
	set := make([]bool, s.Period)
	for _, a := range s.Active {
		set[a] = true
	}
	return set
}

// WorstCase computes the exact worst-case number of slots until a and b
// share an active slot, over every possible pair of initial phases (where
// in its pattern each device is when discovery begins). The second return
// value is false if some phase pair never leads to an overlap (the pair is
// non-deterministic even slot-aligned).
//
// This is the literature's "discovery guaranteed within N slots"
// definition executed literally: for initial phases (u, v), the discovery
// slot is min{ t ≥ 0 : a active at u+t, b active at v+t }, and the worst
// case is the max over all (u, v). Both schedules repeat, so
// t < lcm(Ta, Tb) suffices.
func WorstCase(a, b Schedule) (int, bool) {
	if err := a.Validate(); err != nil {
		return 0, false
	}
	if err := b.Validate(); err != nil {
		return 0, false
	}
	setA := a.activeSet()
	setB := b.activeSet()
	hyper := lcm(a.Period, b.Period)
	worst := 0
	for u := 0; u < a.Period; u++ {
		for v := 0; v < b.Period; v++ {
			found := false
			for t := 0; t < hyper; t++ {
				if setA[(u+t)%a.Period] && setB[(v+t)%b.Period] {
					if t+1 > worst {
						worst = t + 1 // +1: discovery completes within slot t
					}
					found = true
					break
				}
			}
			if !found {
				return 0, false
			}
		}
	}
	return worst, true
}

// Symmetric computes the worst case of a schedule against itself.
func Symmetric(s Schedule) (int, bool) { return WorstCase(s, s) }

// Result is the exact outcome of a slot-aligned pair analysis.
type Result struct {
	// Deterministic reports whether every phase pair leads to a shared
	// active slot.
	Deterministic bool

	// CoveredFraction is the fraction of phase pairs that ever discover.
	CoveredFraction float64

	// WorstSlots is the exact worst-case discovery slot count over the
	// phase pairs that discover (discovery within slot t counts t+1
	// slots), matching WorstCase when the pair is deterministic.
	WorstSlots int

	// MeanSlots is the expected discovery slot count over uniform phase
	// pairs, conditional on discovery.
	MeanSlots float64
}

// Analyze computes the exact worst-case and mean discovery slot counts of
// schedules a and b under slot alignment, over independent uniform initial
// phases — the quantity the slot-grid Monte-Carlo trials sample.
//
// Both schedules advance one slot per tick of the shared grid, so the
// joint state repeats with the hyperperiod P = lcm(Ta, Tb) and the phase
// difference d = (v − u) mod P is invariant. For each d the positions
// where both are active form a set S_d; the first-overlap delay from phase
// u is the circular distance from u to the next element of S_d, so worst
// and mean reduce to the gap structure of S_d. Only a's active positions
// can be in S_d, so each d walks those, checked against b's activity
// unrolled over two hyperperiods: O(P·|A|) for the |A| = P·|a.Active|/Ta
// active positions of a, far below WorstCase's O(Ta·Tb·P).
func Analyze(a, b Schedule) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	if err := b.Validate(); err != nil {
		return Result{}, err
	}
	p := lcm(a.Period, b.Period)
	posA := make([]int, 0, p/a.Period*len(a.Active))
	for base := 0; base < p; base += a.Period {
		for _, s := range a.Active {
			posA = append(posA, base+s)
		}
	}
	setB := b.activeSet()
	actB := make([]bool, 2*p)
	for base := 0; base < 2*p; base += b.Period {
		copy(actB[base:], setB)
	}

	var (
		worst      int
		meanNum    float64 // Σ_d Σ_u delay(u, d)
		coveredD   int     // phase differences with any overlap
		uncoveredD int
	)
	for d := 0; d < p; d++ {
		// Walk S_d = { s : a active at s ∧ b active at s+d } once in
		// increasing s, accumulating its gap structure: per gap of length
		// g the delays are 0..g−1, summing to g(g−1)/2 with maximum g−1.
		first, prev := -1, -1
		for _, s := range posA {
			if !actB[s+d] {
				continue
			}
			if first < 0 {
				first = s
			} else {
				g := s - prev
				meanNum += float64(g) * float64(g-1) / 2
				if g-1 > worst {
					worst = g - 1
				}
			}
			prev = s
		}
		if first < 0 {
			uncoveredD++
			continue
		}
		coveredD++
		g := p - prev + first // wraparound gap
		meanNum += float64(g) * float64(g-1) / 2
		if g-1 > worst {
			worst = g - 1
		}
	}
	res := Result{
		Deterministic:   uncoveredD == 0,
		CoveredFraction: float64(coveredD) / float64(p),
	}
	if coveredD > 0 {
		// Discovery within slot t completes after t+1 slots.
		res.WorstSlots = worst + 1
		res.MeanSlots = meanNum/(float64(coveredD)*float64(p)) + 1
	}
	return res, nil
}

// Disco returns the slot-domain Disco schedule for primes p1 < p2.
func Disco(p1, p2 int) (Schedule, error) {
	if !gf.IsPrime(p1) || !gf.IsPrime(p2) || p1 >= p2 {
		return Schedule{}, fmt.Errorf("slots: Disco needs primes p1 < p2, got %d, %d", p1, p2)
	}
	period := p1 * p2
	var active []int
	for i := 0; i < period; i++ {
		if i%p1 == 0 || i%p2 == 0 {
			active = append(active, i)
		}
	}
	return Schedule{Period: period, Active: active}, nil
}

// UConnect returns the slot-domain U-Connect schedule for odd prime p.
func UConnect(p int) (Schedule, error) {
	if !gf.IsPrime(p) || p < 3 {
		return Schedule{}, fmt.Errorf("slots: U-Connect needs an odd prime, got %d", p)
	}
	period := p * p
	seen := make(map[int]bool)
	for i := 0; i < period; i += p {
		seen[i] = true
	}
	for i := 0; i < (p+1)/2; i++ {
		seen[i] = true
	}
	active := make([]int, 0, len(seen))
	for i := 0; i < period; i++ {
		if seen[i] {
			active = append(active, i)
		}
	}
	return Schedule{Period: period, Active: active}, nil
}

// Diffcode returns the slot-domain difference-set schedule of order q.
func Diffcode(q int) (Schedule, error) {
	ds, err := diffset.ForOrder(q)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Period: ds.N, Active: ds.Elems}, nil
}

// Searchlight returns the slot-domain Searchlight schedule with anchor
// period t (plain sequential probing; the full pattern period is
// t·⌈t/2⌉ slots).
func Searchlight(t int) (Schedule, error) {
	if t < 4 {
		return Schedule{}, fmt.Errorf("slots: Searchlight period %d too small", t)
	}
	sweep := (t + 1) / 2
	var active []int
	for j := 0; j < sweep; j++ {
		probe := 1 + j
		active = append(active, j*t, j*t+probe)
	}
	return Schedule{Period: t * sweep, Active: dedupeSorted(active)}, nil
}

// ZhengLowerBound is the k ≥ √T bound of [17,16]: the minimum number of
// active slots per period T for which guaranteed discovery within T slots
// is possible at all.
func ZhengLowerBound(period int) int {
	k := 0
	for k*k < period {
		k++
	}
	return k
}

func dedupeSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func lcm(a, b int) int {
	g := gcd(a, b)
	return a / g * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
