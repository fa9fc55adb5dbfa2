// Package sim is a discrete-event simulator for neighbor discovery among S
// devices sharing one or more radio channels.
//
// The coverage engine (package coverage) answers the two-device question
// exactly; this simulator answers the questions the closed forms cannot:
// what happens when many devices discover each other simultaneously, their
// beacons collide (unslotted ALOHA: any airtime overlap on the same
// channel destroys both packets), radios are half-duplex, schedules are
// jittered for decorrelation (the BLE advDelay mechanism the paper's
// conclusion points to), and transmissions rotate over several advertising
// channels. It is the workload generator behind the Figure 7 and
// Appendix B experiments and the engine's multi-channel crowd workloads.
//
// All trial paths are configurations of one event-driven kernel over a
// world of nodes × radios × channels (RunWorldScratch, world.go), which
// takes its jitter stream as an argument. Each trial kind has one entry
// point (PairTrialScratch, GroupTrialScratch, ChurnTrialScratch, the
// MultiChannel…TrialScratch trials and SlotGridPair.TrialScratch); each
// takes the caller's per-trial rng, so the engine can derive one stream
// per trial — the root of its bit-identical-across-workers contract — and
// a caller-owned Scratch arena. A trial draws its arrivals and phases from
// that rng and places its devices straight onto the arena's WorldNodes;
// the single-channel pair and the crowds then draw one seed for the
// kernel's jitter stream. The four crowd kinds share one group builder
// and one pair judge, and the two escalating pair kinds one runner
// (trial.go). Every output lives in the arena until its next trial. Time
// is integer ticks. Every run is deterministic given its seed.
package sim

import (
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// Config controls channel and radio semantics.
type Config struct {
	// Horizon is the simulated duration; events at t ∈ [0, Horizon).
	Horizon timebase.Ticks

	// Collisions enables the ALOHA channel: a packet overlapping any other
	// packet in time is destroyed at every receiver.
	Collisions bool

	// HalfDuplex prevents a device from receiving while it transmits.
	HalfDuplex bool

	// TruncatedWindows requires a packet to start no later than ω before
	// the window's end to be received (Appendix A.3 semantics).
	TruncatedWindows bool

	// Jitter delays each beacon independently by a uniform amount in
	// [0, Jitter], decorrelating periodic collision patterns (the BLE
	// advDelay mechanism). Zero disables jitter. The delays come from the
	// rng passed to RunWorldScratch; the trial primitives pass a child
	// stream drawn from the caller's per-trial rng, so callers can shard
	// Monte-Carlo trials across goroutines with independent, deterministic
	// streams.
	Jitter timebase.Ticks
}

// transmission is one packet on air. Its sender is implicit in the run it
// belongs to, and the narrow channel field keeps the struct at 24 bytes —
// the kernel streams millions of these per second, so its footprint is
// memory-bandwidth-sensitive.
type transmission struct {
	start, end timebase.Ticks
	channel    int32
	collided   bool
}

// Stats summarizes a latency sample set.
type Stats struct {
	N             int
	Misses        int // trials with no discovery within the horizon
	Min, Max      timebase.Ticks
	Mean          float64
	P50, P95, P99 timebase.Ticks
}

// CollectSorted computes order statistics over samples, which the caller
// has already sorted ascending; misses counts separately.
func CollectSorted(sorted []timebase.Ticks, misses int) Stats {
	st := Stats{N: len(sorted) + misses, Misses: misses}
	if len(sorted) == 0 {
		return st
	}
	st.Min = sorted[0]
	st.Max = sorted[len(sorted)-1]
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	st.Mean = sum / float64(len(sorted))
	st.P50 = quantile(sorted, 0.50)
	st.P95 = quantile(sorted, 0.95)
	st.P99 = quantile(sorted, 0.99)
	return st
}

func quantile(sorted []timebase.Ticks, q float64) timebase.Ticks {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// FailureRate returns the fraction of trials that missed.
func (s Stats) FailureRate() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.N)
}

// phaseSpan is the range a single-channel device's phase is drawn over:
// its beacon period, or its window period when that is longer or the only
// one.
func phaseSpan(d schedule.Device) timebase.Ticks {
	if d.B.Period == 0 || d.C.Period > d.B.Period {
		return d.C.Period
	}
	return d.B.Period
}

// randPhase draws a phase uniform over [0, span), or returns 0 without a
// draw when span ≤ 0.
func randPhase(rng *rand.Rand, span timebase.Ticks) timebase.Ticks {
	if span <= 0 {
		return 0
	}
	return timebase.Ticks(rng.Int63n(int64(span)))
}
