package slots

import (
	"math/rand"
	"testing"
)

// referenceAnalyze is the Analyze that walked every position of the
// hyperperiod for every phase difference, O(P²) with a modulo per step.
// It stays here as the reference the walk over a's active positions must
// match bit for bit: both visit the gaps of each S_d in the same order.
func referenceAnalyze(a, b Schedule) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	if err := b.Validate(); err != nil {
		return Result{}, err
	}
	p := lcm(a.Period, b.Period)
	setA := a.activeSet()
	setB := b.activeSet()
	actA := make([]bool, p)
	actB := make([]bool, p)
	for i := 0; i < p; i++ {
		actA[i] = setA[i%a.Period]
		actB[i] = setB[i%b.Period]
	}

	var (
		worst      int
		meanNum    float64
		coveredD   int
		uncoveredD int
	)
	for d := 0; d < p; d++ {
		first, prev := -1, -1
		for s := 0; s < p; s++ {
			if !(actA[s] && actB[(s+d)%p]) {
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
		g := p - prev + first
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
		res.WorstSlots = worst + 1
		res.MeanSlots = meanNum/(float64(coveredD)*float64(p)) + 1
	}
	return res, nil
}

// randomSchedule draws a schedule of period 1–40 with a random non-empty
// subset of active slots.
func randomSchedule(rng *rand.Rand) Schedule {
	s := Schedule{Period: 1 + rng.Intn(40)}
	density := rng.Float64()
	for i := 0; i < s.Period; i++ {
		if rng.Float64() < density {
			s.Active = append(s.Active, i)
		}
	}
	if len(s.Active) == 0 {
		s.Active = []int{rng.Intn(s.Period)}
	}
	return s
}

// TestAnalyzeMatchesReference: Analyze returns exactly the reference's
// Result, MeanSlots to the bit, on the literature's schedules against
// each other and on random pairs of equal, related and unrelated periods.
func TestAnalyzeMatchesReference(t *testing.T) {
	var named []Schedule
	for _, mk := range []func() (Schedule, error){
		func() (Schedule, error) { return Disco(3, 5) },
		func() (Schedule, error) { return Disco(5, 7) },
		func() (Schedule, error) { return UConnect(5) },
		func() (Schedule, error) { return Diffcode(3) },
		func() (Schedule, error) { return Searchlight(6) },
	} {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		named = append(named, s)
	}
	check := func(a, b Schedule) {
		t.Helper()
		got, err := Analyze(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceAnalyze(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("a=%+v b=%+v:\n got %+v\nwant %+v", a, b, got, want)
		}
	}
	for _, a := range named {
		for _, b := range named {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(13))
	var deterministic int
	for trial := 0; trial < 1500; trial++ {
		a := randomSchedule(rng)
		b := a
		if rng.Intn(3) > 0 {
			b = randomSchedule(rng)
		}
		check(a, b)
		if res, _ := Analyze(a, b); res.Deterministic {
			deterministic++
		}
	}
	if deterministic < 100 || deterministic > 1400 {
		t.Errorf("%d of 1500 random pairs deterministic: the generator lost one of the outcomes", deterministic)
	}
}
