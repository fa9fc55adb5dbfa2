// Package timebase provides the integer time representation used by all
// schedule arithmetic in this repository.
//
// Neighbor-discovery determinism proofs are interval-coverage statements:
// a schedule either covers every initial offset or it does not. Floating
// point rounding can open (or close) zero-width gaps and silently turn a
// deterministic schedule into a probabilistic one, so every quantity that
// participates in coverage analysis — window starts, window lengths, beacon
// times, beacon gaps, periods — is kept in integer Ticks. One tick is one
// microsecond, which is finer than the shortest packet airtime the paper
// considers (ω = 32 µs) and exactly represents all BLE-style timing grids
// (0.625 ms multiples).
//
// Floating point appears only in closed-form bound formulas and statistics,
// where it belongs.
package timebase

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"time"
)

// Ticks is an instant or duration measured in integer microseconds.
type Ticks int64

// Common tick quantities.
const (
	Microsecond Ticks = 1
	Millisecond Ticks = 1000 * Microsecond
	Second      Ticks = 1000 * Millisecond
	Minute      Ticks = 60 * Second
)

// FromDuration converts a time.Duration to Ticks, truncating sub-microsecond
// precision.
func FromDuration(d time.Duration) Ticks {
	return Ticks(d / time.Microsecond)
}

// Duration converts t to a time.Duration.
func (t Ticks) Duration() time.Duration {
	return time.Duration(t) * time.Microsecond
}

// Seconds returns t expressed in seconds as a float64.
func (t Ticks) Seconds() float64 {
	return float64(t) / float64(Second)
}

// FromSeconds converts a duration in seconds to Ticks, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Ticks {
	return Ticks(math.Round(s * float64(Second)))
}

// String renders the tick count in a human-friendly unit.
func (t Ticks) String() string {
	switch {
	case t == 0:
		return "0µs"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t%Millisecond == 0:
		return fmt.Sprintf("%dms", t/Millisecond)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// Mod returns t modulo period, normalized into [0, period). It requires
// period > 0 and works for negative t, unlike the built-in % operator.
func (t Ticks) Mod(period Ticks) Ticks {
	if period <= 0 {
		panic(fmt.Sprintf("timebase: Mod with non-positive period %d", period))
	}
	m := t % period
	if m < 0 {
		m += period
	}
	return m
}

// GCD returns the greatest common divisor of a and b. GCD(0, 0) == 0.
// Negative inputs are treated by absolute value.
func GCD(a, b Ticks) Ticks {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 if either is 0.
// It panics on overflow because a silently wrapped hyperperiod would make
// coverage analysis unsound.
func LCM(a, b Ticks) Ticks {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	q := a / g
	// Overflow check: |q * b| must fit in int64.
	if q != 0 && absT(b) > math.MaxInt64/absT(q) {
		panic(fmt.Sprintf("timebase: LCM(%d, %d) overflows int64", a, b))
	}
	l := q * b
	return absT(l)
}

func absT(t Ticks) Ticks {
	if t < 0 {
		return -t
	}
	return t
}

// Ratio is an exact non-negative rational number p/q with q > 0, used to
// represent duty cycles without floating point error during schedule
// construction ("listen 1 tick out of every 40").
type Ratio struct {
	Num Ticks // numerator
	Den Ticks // denominator, always > 0 after normalization
}

// NewRatio returns num/den reduced to lowest terms.
// It panics if den == 0 or if the value would be negative.
func NewRatio(num, den Ticks) Ratio {
	if den == 0 {
		panic("timebase: ratio with zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	if num < 0 {
		panic(fmt.Sprintf("timebase: negative ratio %d/%d", num, den))
	}
	if num == 0 {
		return Ratio{0, 1}
	}
	g := GCD(num, den)
	return Ratio{num / g, den / g}
}

// Float returns the ratio as a float64.
func (r Ratio) Float() float64 { return float64(r.Num) / float64(r.Den) }

// IsZero reports whether the ratio is exactly zero.
func (r Ratio) IsZero() bool { return r.Num == 0 }

// String renders the ratio as "p/q".
func (r Ratio) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// Mul returns r*s reduced to lowest terms. It panics on int64 overflow.
func (r Ratio) Mul(s Ratio) Ratio {
	// Cross-reduce first to keep intermediates small.
	g1 := GCD(r.Num, s.Den)
	g2 := GCD(s.Num, r.Den)
	n1, d2 := r.Num/g1, s.Den/g1
	n2, d1 := s.Num/g2, r.Den/g2
	if n1 != 0 && absT(n2) > math.MaxInt64/absT(n1) {
		panic("timebase: ratio multiply overflow (numerator)")
	}
	if d1 != 0 && absT(d2) > math.MaxInt64/absT(d1) {
		panic("timebase: ratio multiply overflow (denominator)")
	}
	return NewRatio(n1*n2, d1*d2)
}

// ApproximateRatio finds a rational p/q ≈ x with q ≤ maxDen using continued
// fractions (best rational approximation). It requires 0 ≤ x and maxDen ≥ 1.
//
// Schedule constructors use this to turn a requested floating-point duty
// cycle into an exact integer schedule: e.g. γ = 0.025 becomes 1/40.
func ApproximateRatio(x float64, maxDen Ticks) Ratio {
	if maxDen < 1 {
		panic("timebase: ApproximateRatio with maxDen < 1")
	}
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		panic(fmt.Sprintf("timebase: ApproximateRatio of invalid value %v", x))
	}
	if x == 0 {
		return Ratio{0, 1}
	}
	// Continued fraction expansion with convergents p/q.
	// Standard recurrence: p_{-1}=1, q_{-1}=0; p_{-2}=0, q_{-2}=1.
	pPrev, qPrev := Ticks(1), Ticks(0)
	pPrev2, qPrev2 := Ticks(0), Ticks(1)
	val := x
	bestP, bestQ := Ticks(math.Round(x)), Ticks(1)
	for i := 0; i < 64; i++ {
		a := Ticks(math.Floor(val))
		p := a*pPrev + pPrev2
		q := a*qPrev + qPrev2
		if q > maxDen || q < 0 || p < 0 {
			// Try the best semiconvergent that still fits.
			if qPrev > 0 {
				aMax := (maxDen - qPrev2) / qPrev
				if aMax >= 1 {
					sp := aMax*pPrev + pPrev2
					sq := aMax*qPrev + qPrev2
					if sq >= 1 && better(x, sp, sq, bestP, bestQ) {
						bestP, bestQ = sp, sq
					}
				}
			}
			break
		}
		if better(x, p, q, bestP, bestQ) || i == 0 {
			bestP, bestQ = p, q
		}
		frac := val - math.Floor(val)
		if frac < 1e-15 {
			break
		}
		val = 1 / frac
		pPrev2, qPrev2 = pPrev, qPrev
		pPrev, qPrev = p, q
	}
	if bestQ < 1 {
		bestP, bestQ = Ticks(math.Round(x)), 1
	}
	return NewRatio(bestP, bestQ)
}

func better(x float64, p, q, bp, bq Ticks) bool {
	if q <= 0 {
		return false
	}
	if bq <= 0 {
		return true
	}
	return math.Abs(x-float64(p)/float64(q)) <= math.Abs(x-float64(bp)/float64(bq))
}

// CeilDiv returns ⌈a/b⌉ for b > 0, a ≥ 0.
func CeilDiv(a, b Ticks) Ticks {
	if b <= 0 {
		panic(fmt.Sprintf("timebase: CeilDiv with non-positive divisor %d", b))
	}
	if a < 0 {
		panic(fmt.Sprintf("timebase: CeilDiv with negative dividend %d", a))
	}
	return (a + b - 1) / b
}

// Sum128 is an exact unsigned 128-bit sum of tick products: a latency
// weighted by the length of the offsets it holds on, summed over a long
// horizon, can exceed int64. The zero value is an empty sum.
type Sum128 struct{ hi, lo uint64 }

// AddMul adds x·y to the sum, for non-negative x and y.
func (u *Sum128) AddMul(x, y Ticks) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	var carry uint64
	u.lo, carry = bits.Add64(u.lo, lo, 0)
	u.hi += hi + carry
}

// Float64 returns the sum rounded to the nearest float64.
func (u Sum128) Float64() float64 {
	if u.hi == 0 {
		return float64(u.lo)
	}
	x := new(big.Int).Lsh(new(big.Int).SetUint64(u.hi), 64)
	f, _ := new(big.Float).SetInt(x.Or(x, new(big.Int).SetUint64(u.lo))).Float64()
	return f
}
