package slots

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/protocols"
	"repro/internal/timebase"
)

func TestScheduleValidate(t *testing.T) {
	good := Schedule{Period: 10, Active: []int{0, 3, 7}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Period: 0, Active: []int{0}},
		{Period: 10, Active: nil},
		{Period: 10, Active: []int{10}},
		{Period: 10, Active: []int{3, 3}},
		{Period: 10, Active: []int{5, 2}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestDiscoWorstCaseIsCRTBound(t *testing.T) {
	// Disco's guarantee: two devices with the same coprime prime pair
	// discover within p1·p2 slots, and the bound is attained.
	for _, pp := range [][2]int{{3, 5}, {5, 7}, {7, 11}} {
		d, err := Disco(pp[0], pp[1])
		if err != nil {
			t.Fatal(err)
		}
		worst, ok := Symmetric(d)
		if !ok {
			t.Fatalf("Disco(%v) not deterministic slot-aligned", pp)
		}
		bound := pp[0] * pp[1]
		if worst > bound {
			t.Errorf("Disco(%v): worst %d exceeds p1·p2 = %d", pp, worst, bound)
		}
		// The CRT bound is tight within one prime gap.
		if worst < bound-pp[1] {
			t.Errorf("Disco(%v): worst %d suspiciously below p1·p2 = %d", pp, worst, bound)
		}
	}
}

func TestDiffcodeWorstCaseIsPeriod(t *testing.T) {
	// A perfect difference set guarantees an overlap within n slots for
	// every rotation — and n is tight for some rotation.
	for _, q := range []int{2, 3, 4, 5, 7} {
		d, err := Diffcode(q)
		if err != nil {
			t.Fatal(err)
		}
		worst, ok := Symmetric(d)
		if !ok {
			t.Fatalf("Diffcode(q=%d) not deterministic", q)
		}
		if worst > d.Period {
			t.Errorf("q=%d: worst %d exceeds n = %d", q, worst, d.Period)
		}
		// Optimality in slot count: k active slots with k ≥ √T (the Zheng
		// bound), met with equality up to the +1 of n = q²+q+1.
		if k, min := len(d.Active), ZhengLowerBound(d.Period); k > min+1 {
			t.Errorf("q=%d: k = %d far above the √T bound %d", q, k, min)
		}
	}
}

func TestUConnectWorstCase(t *testing.T) {
	for _, p := range []int{3, 5, 7} {
		u, err := UConnect(p)
		if err != nil {
			t.Fatal(err)
		}
		worst, ok := Symmetric(u)
		if !ok {
			t.Fatalf("U-Connect(%d) not deterministic", p)
		}
		if worst > p*p {
			t.Errorf("p=%d: worst %d exceeds p² = %d", p, worst, p*p)
		}
	}
}

func TestSearchlightWorstCase(t *testing.T) {
	for _, tt := range []int{4, 6, 8, 10} {
		s, err := Searchlight(tt)
		if err != nil {
			t.Fatal(err)
		}
		worst, ok := Symmetric(s)
		if !ok {
			t.Fatalf("Searchlight(%d) not deterministic slot-aligned", tt)
		}
		// Guarantee: t·⌈t/2⌉ slots.
		if bound := tt * ((tt + 1) / 2); worst > bound {
			t.Errorf("t=%d: worst %d exceeds t·⌈t/2⌉ = %d", tt, worst, bound)
		}
	}
}

func TestZhengLowerBound(t *testing.T) {
	cases := []struct{ period, want int }{
		{1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {49, 7}, {50, 8},
	}
	for _, c := range cases {
		if got := ZhengLowerBound(c.period); got != c.want {
			t.Errorf("ZhengLowerBound(%d) = %d, want %d", c.period, got, c.want)
		}
	}
}

func TestAsymmetricPairWorstCase(t *testing.T) {
	// Two different Disco configurations with pairwise coprime primes must
	// also discover each other (the Disco cross-pair guarantee).
	a, _ := Disco(3, 5)
	b, _ := Disco(7, 11)
	worst, ok := WorstCase(a, b)
	if !ok {
		t.Fatal("cross-pair Disco not deterministic")
	}
	// Guarantee: min over prime pairs of the CRT products ≥ worst; the
	// loosest usable pair is 5·11.
	if worst > 5*11 {
		t.Errorf("cross worst %d exceeds 55", worst)
	}
}

func TestNonDeterministicPair(t *testing.T) {
	// Identical single-slot schedules with equal periods never meet at
	// offset ≠ 0.
	s := Schedule{Period: 10, Active: []int{0}}
	if _, ok := Symmetric(s); ok {
		t.Error("single-slot schedule cannot be deterministic against itself")
	}
}

// TestSlotDomainMatchesTickDomain cross-validates the two independent
// engines: the slot-domain worst case times the slot length must bracket
// the tick-domain (full-duplex) measured worst case.
func TestSlotDomainMatchesTickDomain(t *testing.T) {
	slotLen := timebase.Ticks(500)
	omega := timebase.Ticks(10)

	cases := []struct {
		name  string
		slots Schedule
		build func() (*protocols.Slotted, error)
	}{
		{
			"disco(3,5)",
			func() Schedule { s, _ := Disco(3, 5); return s }(),
			func() (*protocols.Slotted, error) { return protocols.NewDisco(3, 5, slotLen, omega) },
		},
		{
			"diffcode(3)",
			func() Schedule { s, _ := Diffcode(3); return s }(),
			func() (*protocols.Slotted, error) { return protocols.NewDiffcode(3, slotLen, omega) },
		},
		{
			"uconnect(5)",
			func() Schedule { s, _ := UConnect(5); return s }(),
			func() (*protocols.Slotted, error) { return protocols.NewUConnect(5, slotLen, omega) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slotWorst, ok := Symmetric(c.slots)
			if !ok {
				t.Fatal("slot domain: not deterministic")
			}
			proto, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			dev, err := proto.DeviceFullDuplex()
			if err != nil {
				t.Fatal(err)
			}
			res, err := coverage.Analyze(dev.B, dev.C, coverage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deterministic {
				t.Fatal("tick domain: not deterministic")
			}
			// The two engines model different physics: the slot domain
			// assumes aligned slots and one overlap notion; the tick
			// domain sweeps continuous offsets where the two-beacon slot
			// layout can succeed up to ~2 slots earlier (partial overlap)
			// or ~1 slot later (fractional misalignment). Cross-validate
			// within a ±3-slot bracket.
			tickSlots := float64(res.WorstLatency) / float64(slotLen)
			if diff := tickSlots - float64(slotWorst); diff > 1.5 || diff < -3.5 {
				t.Errorf("tick worst %.2f slots vs slot-domain %d slots (diff %.2f)",
					tickSlots, slotWorst, diff)
			}
		})
	}
}

// TestAnalyzeMatchesWorstCase: the gap-structure analysis must agree
// with the brute-force WorstCase enumeration on worst case and coverage,
// for identical and differing-period pairs alike.
func TestAnalyzeMatchesWorstCase(t *testing.T) {
	mk := func(f func() (Schedule, error)) Schedule {
		s, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pairs := [][2]Schedule{
		{mk(func() (Schedule, error) { return Disco(3, 5) }), mk(func() (Schedule, error) { return Disco(3, 5) })},
		{mk(func() (Schedule, error) { return Disco(5, 7) }), mk(func() (Schedule, error) { return Disco(5, 7) })},
		{mk(func() (Schedule, error) { return UConnect(5) }), mk(func() (Schedule, error) { return UConnect(5) })},
		{mk(func() (Schedule, error) { return Diffcode(3) }), mk(func() (Schedule, error) { return Diffcode(3) })},
		{mk(func() (Schedule, error) { return Searchlight(6) }), mk(func() (Schedule, error) { return Searchlight(6) })},
		// Different periods: Disco against U-Connect.
		{mk(func() (Schedule, error) { return Disco(3, 5) }), mk(func() (Schedule, error) { return UConnect(5) })},
		// A non-deterministic pair: two disjoint single-slot schedules of
		// the same period never overlap for most phase differences.
		{{Period: 4, Active: []int{0}}, {Period: 4, Active: []int{0}}},
	}
	for i, pr := range pairs {
		res, err := Analyze(pr[0], pr[1])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		worst, ok := WorstCase(pr[0], pr[1])
		if ok != res.Deterministic {
			t.Errorf("pair %d: determinism disagrees: WorstCase %v, Analyze %v", i, ok, res.Deterministic)
			continue
		}
		if ok && worst != res.WorstSlots {
			t.Errorf("pair %d: worst disagrees: WorstCase %d, Analyze %d", i, worst, res.WorstSlots)
		}
		if res.Deterministic && res.CoveredFraction != 1 {
			t.Errorf("pair %d: deterministic but covered %v", i, res.CoveredFraction)
		}
		if res.Deterministic && (res.MeanSlots < 1 || res.MeanSlots > float64(res.WorstSlots)) {
			t.Errorf("pair %d: mean %v outside [1, %d]", i, res.MeanSlots, res.WorstSlots)
		}
	}
}

// TestAnalyzeMeanByEnumeration cross-checks MeanSlots against a direct
// enumeration of all phase pairs on a small schedule.
func TestAnalyzeMeanByEnumeration(t *testing.T) {
	s, err := Disco(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(s, s)
	if err != nil {
		t.Fatal(err)
	}
	set := make([]bool, s.Period)
	for _, a := range s.Active {
		set[a] = true
	}
	var sum, n float64
	for u := 0; u < s.Period; u++ {
		for v := 0; v < s.Period; v++ {
			for dt := 0; dt < s.Period; dt++ {
				if set[(u+dt)%s.Period] && set[(v+dt)%s.Period] {
					sum += float64(dt + 1)
					n++
					break
				}
			}
		}
	}
	want := sum / n
	if diff := res.MeanSlots - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Analyze mean %v, enumeration %v", res.MeanSlots, want)
	}
}

// TestAnalyzeCoveredFraction: a single active slot against itself overlaps
// only when the phase difference is zero.
func TestAnalyzeCoveredFraction(t *testing.T) {
	s := Schedule{Period: 8, Active: []int{0}}
	res, err := Analyze(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("single-slot schedule cannot be deterministic")
	}
	if res.CoveredFraction != 1.0/8 {
		t.Fatalf("covered fraction %v, want 1/8", res.CoveredFraction)
	}
}
