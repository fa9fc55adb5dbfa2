package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file holds the single-trial Monte-Carlo primitives. Each draws its
// random choices (phases, arrivals) from the caller-supplied rng and runs
// the event simulation on a child RNG stream derived from it, so a caller
// that owns one rng per trial can shard trials across goroutines and still
// obtain results bit-identical to a serial loop. Every primitive runs on
// a caller-owned arena: the engine's workers hold one each, and a one-off
// caller passes NewScratch().

// worldFromNodes materializes single-channel Nodes as WorldNodes on the
// arena: every node's beacon and window schedules land on channel 0.
func worldFromNodes(nodes []Node, scr *Scratch) []WorldNode {
	ws := scr.worldNodes(len(nodes), 1, 1)
	for i := range nodes {
		n := &nodes[i]
		ws[i] = WorldNode{Arrive: n.Arrive, Depart: n.Depart}
		if !n.Device.B.Empty() {
			em := scr.nodeEmits(i, 1)
			em[0] = Emission{Channel: 0, B: n.Device.B, Phase: n.Phase}
			ws[i].Emits = em
		}
		if !n.Device.C.Empty() {
			ls := scr.nodeListens(i, 1)
			ls[0] = Listening{Channel: 0, C: n.Device.C, Phase: n.Phase}
			ws[i].Listens = ls
		}
	}
	return ws
}

// PairTrialScratch runs one trial of receiver f hearing sender e: both
// devices get independent uniform random phases drawn from rng. It returns
// the first reception time and whether discovery happened within the
// horizon.
func PairTrialScratch(e, f schedule.Device, cfg Config, rng *rand.Rand, scr *Scratch) (timebase.Ticks, bool, error) {
	scr.nodes = grow(scr.nodes, 2)
	scr.nodes[0] = Node{Device: e, Phase: randPhase(rng, e)}
	scr.nodes[1] = Node{Device: f, Phase: randPhase(rng, f)}
	wr, err := RunWorldScratch(worldFromNodes(scr.nodes, scr), cfg, scr.jitterRand(rng.Int63()), scr)
	if err != nil {
		return 0, false, err
	}
	// Discovery completes when the packet does.
	rec, ok := wr.FirstReception(1, 0)
	return rec.End, ok, nil
}

// GroupTrialResult is the outcome of one many-device trial.
type GroupTrialResult struct {
	// Samples holds the first-discovery latency of every ordered
	// (receiver, sender) pair that discovered within the horizon, in
	// deterministic (receiver-major) order; Misses counts the pairs that
	// did not.
	Samples []timebase.Ticks
	Misses  int

	// Channel statistics of the underlying run. Aggregation across trials
	// pools Collided/Transmissions, so every packet weighs the same; a
	// per-trial rate deliberately does not exist here.
	Transmissions, Collided int
}

// GroupTrialScratch runs one trial of s identical devices with random
// phases and collects all ordered-pair discovery latencies plus channel
// statistics. The returned Samples slice is freshly allocated (callers
// retain it across trials); everything else the kernel touched stays in
// the arena.
func GroupTrialScratch(dev schedule.Device, s int, cfg Config, rng *rand.Rand, scr *Scratch) (GroupTrialResult, error) {
	if s < 2 {
		return GroupTrialResult{}, fmt.Errorf("sim: group size %d must be ≥ 2", s)
	}
	scr.nodes = grow(scr.nodes, s)
	for i := range scr.nodes {
		scr.nodes[i] = Node{Device: dev, Phase: randPhase(rng, dev)}
	}
	wr, err := RunWorldScratch(worldFromNodes(scr.nodes, scr), cfg, scr.jitterRand(rng.Int63()), scr)
	if err != nil {
		return GroupTrialResult{}, err
	}
	out := GroupTrialResult{
		Transmissions: wr.Transmissions,
		Collided:      wr.Collided,
	}
	for r := 0; r < s; r++ {
		for snd := 0; snd < s; snd++ {
			if r == snd {
				continue
			}
			if rec, ok := wr.FirstReception(r, snd); ok {
				out.Samples = append(out.Samples, rec.End)
			} else {
				out.Misses++
			}
		}
	}
	return out, nil
}

// Contact is one ordered pair's encounter in a churn trial: the duration
// both devices were jointly present, and whether (and when, measured from
// the joint-presence instant) the receiver discovered the sender.
type Contact struct {
	Overlap    timebase.Ticks
	Discovered bool
	Latency    timebase.Ticks // valid iff Discovered
}

// ChurnTrialScratch runs one trial of the churn scenario: s identical
// devices arrive at uniformly random times in the first half of the
// horizon and stay for stay ticks (0 = until the end). It returns the
// per-pair contact records of every ordered pair whose joint presence
// spans at least one listening period, plus the raw run result for
// channel statistics. The contacts are freshly allocated; the WorldResult
// aliases the arena and is valid only until its next kernel run.
func ChurnTrialScratch(dev schedule.Device, s int, stay timebase.Ticks, cfg Config, rng *rand.Rand, scr *Scratch) ([]Contact, WorldResult, error) {
	if s < 2 {
		return nil, WorldResult{}, fmt.Errorf("sim: group size %d must be ≥ 2", s)
	}
	if cfg.Horizon < 2 {
		return nil, WorldResult{}, fmt.Errorf("sim: churn horizon %d must be ≥ 2", cfg.Horizon)
	}
	// Judge pairs whose joint presence spans at least one listening period
	// — long enough that discovery is possible, short enough that bounded
	// contacts (shorter than the worst case) are still evaluated and can
	// legitimately miss.
	minOverlap := dev.C.Period
	if minOverlap <= 0 {
		minOverlap = dev.B.Period
	}
	scr.nodes = grow(scr.nodes, s)
	nodes := scr.nodes
	for i := range nodes {
		arrive := timebase.Ticks(rng.Int63n(int64(cfg.Horizon / 2)))
		depart := timebase.Ticks(0)
		if stay > 0 {
			depart = arrive + stay
		}
		nodes[i] = Node{
			Device: dev,
			Phase:  randPhase(rng, dev),
			Arrive: arrive,
			Depart: depart,
		}
	}
	wr, err := RunWorldScratch(worldFromNodes(nodes, scr), cfg, scr.jitterRand(rng.Int63()), scr)
	if err != nil {
		return nil, WorldResult{}, err
	}
	var contacts []Contact
	for r := 0; r < s; r++ {
		for snd := 0; snd < s; snd++ {
			if r == snd {
				continue
			}
			both := maxTicks(nodes[r].Arrive, nodes[snd].Arrive)
			until := minTicks(nodes[r].departOr(cfg.Horizon), nodes[snd].departOr(cfg.Horizon))
			overlap := until - both
			if overlap < minOverlap {
				continue // contact too short to judge
			}
			c := Contact{Overlap: overlap}
			if rec, ok := wr.FirstReception(r, snd); ok && rec.End >= both {
				c.Discovered = true
				c.Latency = rec.End - both
			}
			contacts = append(contacts, c)
		}
	}
	return contacts, wr, nil
}
