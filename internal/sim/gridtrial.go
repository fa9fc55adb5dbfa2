package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// This file holds the per-trial Monte-Carlo primitive for slot-aligned
// slotted protocols (package slots owns the exact analysis): the
// slot-domain literature's model — both schedules on a shared grid of
// slotLen-tick slots, discovery in the first slot where both are active —
// executed as a configuration of the world kernel. The trial follows the
// same contract as PairTrialScratch: all randomness comes from the
// caller-supplied rng, so a caller owning one rng per trial can shard
// trials across goroutines with results bit-identical to a serial loop.

// SlotGridPair is the prepared form of a slot-aligned pair: the schedules
// validated and their kernel schedule templates built once, so per-trial
// work is just phase placement plus one kernel run — the engine runs up to
// millions of trials against one prepared pair.
type SlotGridPair struct {
	beacons schedule.BeaconSeq // a's active slots as slot-long beacons
	windows schedule.WindowSeq // b's active slots as slot-long windows
	pa, pb  int64              // schedule periods in slots
	hyper   int64              // joint-state repetition period in slots
	slotLen timebase.Ticks
}

// NewSlotGridPair prepares schedules a and b on a shared grid of
// slotLen-tick slots.
func NewSlotGridPair(a, b slots.Schedule, slotLen timebase.Ticks) (*SlotGridPair, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if slotLen <= 0 {
		return nil, fmt.Errorf("sim: slot length %d must be positive", slotLen)
	}
	p := &SlotGridPair{
		beacons: schedule.BeaconSeq{
			Beacons: make([]schedule.Beacon, len(a.Active)),
			Period:  timebase.Ticks(a.Period) * slotLen,
		},
		windows: schedule.WindowSeq{
			Windows: make([]schedule.Window, len(b.Active)),
			Period:  timebase.Ticks(b.Period) * slotLen,
		},
		pa:      int64(a.Period),
		pb:      int64(b.Period),
		hyper:   int64(timebase.LCM(timebase.Ticks(a.Period), timebase.Ticks(b.Period))),
		slotLen: slotLen,
	}
	// Active slots are validated strictly increasing, so both sequences
	// come out sorted as the kernel requires. The sender's beacon fills its
	// whole slot: reception needs the packet start inside a window, and
	// completes at the slot's end — discovery in slot t costs (t+1)·slotLen,
	// the slot-domain latency convention.
	for i, s := range a.Active {
		p.beacons.Beacons[i] = schedule.Beacon{Time: timebase.Ticks(s) * slotLen, Len: slotLen}
	}
	for i, s := range b.Active {
		p.windows.Windows[i] = schedule.Window{Start: timebase.Ticks(s) * slotLen, Len: slotLen}
	}
	return p, nil
}

// TrialScratch runs one slot-aligned trial on the arena scr: both phases
// are drawn uniform over the schedules' own periods, and discovery happens
// in the first slot where both are active (completing at that slot's end,
// so discovery in slot t costs (t+1)·slotLen). This is the slot-domain
// literature's model executed literally — the ensemble slots.Analyze
// integrates over — as opposed to the continuous-time path, which draws
// arbitrary tick-level offsets and therefore sees the misalignment losses
// of the paper's Figure 5.
func (p *SlotGridPair) TrialScratch(horizon timebase.Ticks, rng *rand.Rand, scr *Scratch) (timebase.Ticks, bool, error) {
	if horizon <= 0 {
		return 0, false, fmt.Errorf("sim: horizon %d must be positive", horizon)
	}
	u := timebase.Ticks(rng.Intn(int(p.pa)))
	v := timebase.Ticks(rng.Intn(int(p.pb)))
	return p.trialAt(u, v, horizon, scr)
}

// trialAt runs the trial with the sender at local slot u and the receiver
// at local slot v when global slot 0 begins, on the runner that starts at
// the longer schedule period.
func (p *SlotGridPair) trialAt(u, v, horizon timebase.Ticks, scr *Scratch) (timebase.Ticks, bool, error) {
	// The joint state repeats after the hyperperiod, so a longer horizon
	// cannot change the outcome — capping the kernel run there bounds
	// per-trial work by the schedule structure, not the caller's horizon.
	// (A discovery in slot t needs (t+1)·slotLen ≤ horizon, which the cap
	// preserves: t < hyper and the capped horizon is ≤ the real one.)
	// Compare in slot units: hyper × slotLen could overflow for huge
	// near-coprime periods, but once hyper is known smaller than the
	// horizon's slot count the product is bounded by the horizon.
	limit := horizon
	if p.hyper < int64(horizon/p.slotLen) {
		limit = timebase.Ticks(p.hyper) * p.slotLen
	}
	// Phase -u·slotLen places the sender's local slot u at global slot 0,
	// so global slot t shows the sender's slot (u+t) mod pa against the
	// receiver's (v+t) mod pb. Every packet is one slot long.
	nodes := scr.worldNodes(2, 1)
	nodes[0] = scr.place(0, p.beacons, schedule.WindowSeq{}, -u*p.slotLen)
	nodes[1] = scr.place(1, schedule.BeaconSeq{}, p.windows, -v*p.slotLen)
	rec, ok, err := scr.escalate(nodes, timebase.Ticks(max(p.pa, p.pb))*p.slotLen, limit, 0)
	return rec.End, ok, err
}
