package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file holds the trial layer every kind shares. Each primitive draws
// its random choices (arrivals, phases) from the caller-supplied rng,
// places its devices straight onto the arena's WorldNodes and runs the
// kernel — the single-channel pair and the crowds on a jitter stream
// seeded by one further draw — so a caller that owns one rng per trial
// can shard trials across goroutines and still obtain results
// bit-identical to a serial loop. The four crowd kinds (single- and
// multi-channel, static and churning) share one group builder and one
// pair judge; the two escalating pair kinds share one runner. Every output
// lives in the caller-owned arena until its next trial: the engine's
// workers hold one each, and a one-off caller passes NewScratch().

// PairTrialScratch runs one trial of receiver f hearing sender e: both
// devices get independent uniform random phases drawn from rng. It returns
// the first reception's end (discovery completes when the packet does) and
// whether discovery happened within the horizon.
func PairTrialScratch(e, f schedule.Device, cfg Config, rng *rand.Rand, scr *Scratch) (timebase.Ticks, bool, error) {
	pe, pf := randPhase(rng, phaseSpan(e)), randPhase(rng, phaseSpan(f))
	return scr.pairAt(e, f, pe, pf, cfg, scr.jitterRand(rng.Int63()))
}

// pairAt runs the single-channel pair with e's schedules shifted by pe
// and f's by pf, jitter drawn from rng.
func (s *Scratch) pairAt(e, f schedule.Device, pe, pf timebase.Ticks, cfg Config, rng *rand.Rand) (timebase.Ticks, bool, error) {
	nodes := s.worldNodes(2, 1)
	nodes[0] = s.place(0, e.B, e.C, pe)
	nodes[1] = s.place(1, f.B, f.C, pf)
	wr, err := RunWorldScratch(nodes, cfg, rng, s)
	if err != nil {
		return 0, false, err
	}
	rec, ok := wr.FirstReception(1, 0)
	return rec.End, ok, nil
}

// place puts a single-channel device on arena node i: beacons b and
// windows c on channel 0, both shifted by phase. The kernel skips an empty
// schedule.
func (s *Scratch) place(i int, b schedule.BeaconSeq, c schedule.WindowSeq, phase timebase.Ticks) WorldNode {
	em, ls := s.nodeEmits(i, 1), s.nodeListens(i, 1)
	em[0] = Emission{B: b, Phase: phase}
	ls[0] = Listening{C: c, Phase: phase}
	return WorldNode{Emits: em, Listens: ls}
}

// GroupTrialResult is the outcome of one crowd trial. It is all-integer,
// so trials pool exactly in any order.
type GroupTrialResult struct {
	// Samples holds one latency per discovered ordered (receiver, sender)
	// pair, in deterministic receiver-major order, measured from the pair's
	// joint-presence instant (t = 0 in a static group) to the first
	// received packet's end (single-channel) or start (multi-channel);
	// Misses counts the judged pairs that did not discover.
	Samples []timebase.Ticks
	Misses  int

	// Channel statistics of the kernel run: pooled and per-channel packet
	// counts, and the discoveries by the channel of each pair's first
	// received packet. Aggregation across trials pools counts, so every
	// packet weighs the same; a per-trial rate deliberately does not exist
	// here.
	Transmissions, Collided int
	PerChannel              []ChannelLoad
	Discoveries             []int
}

// Contact is one ordered pair's encounter in a churn trial: the duration
// both devices were jointly present, and whether (and when, measured from
// the joint-presence instant) the receiver discovered the sender.
type Contact struct {
	Overlap    timebase.Ticks
	Discovered bool
	Latency    timebase.Ticks // valid iff Discovered
}

// ChurnTrialResult is the outcome of one churn trial: the group outcome
// over the judged pairs, and their contact records in the same
// receiver-major order, so callers can bin discovery ratios by contact
// duration. Contact holds a bool, so it sits beside the all-integer group
// outcome rather than inside it.
type ChurnTrialResult struct {
	GroupTrialResult
	Contacts []Contact
}

// GroupTrialScratch runs one trial of s identical devices with random
// phases and collects all ordered-pair discovery latencies plus channel
// statistics.
func GroupTrialScratch(dev schedule.Device, s int, cfg Config, rng *rand.Rand, scr *Scratch) (GroupTrialResult, error) {
	k := deviceCrowd(dev)
	res, _, err := scr.crowdTrial(&k, s, false, 0, cfg, rng)
	return res.GroupTrialResult, err
}

// ChurnTrialScratch runs one trial of the churn scenario: s identical
// devices arrive at uniformly random times in the first half of the
// horizon and stay for stay ticks (0 = until the end). It returns the
// per-pair contact records of every ordered pair whose joint presence
// spans at least one listening period — long enough that discovery is
// possible, short enough that bounded contacts (shorter than the worst
// case) are still evaluated and can legitimately miss — plus the raw run
// result for channel statistics.
func ChurnTrialScratch(dev schedule.Device, s int, stay timebase.Ticks, cfg Config, rng *rand.Rand, scr *Scratch) ([]Contact, WorldResult, error) {
	k := deviceCrowd(dev)
	k.minOverlap = dev.C.Period
	if k.minOverlap <= 0 {
		k.minOverlap = dev.B.Period
	}
	res, wr, err := scr.crowdTrial(&k, s, true, stay, cfg, rng)
	return res.Contacts, wr, err
}

// crowd is one crowd kind as the group builder and the pair judge see it:
// the schedules every device runs, by channel, how a device's phases are
// drawn, and which pairs are judged how.
type crowd struct {
	beacons []schedule.BeaconSeq
	windows []schedule.WindowSeq

	// multi selects the multi-channel model: a device draws its advertising
	// event offset over span, then its scan-cycle offset over circle, each
	// shifting its schedules back, and latency runs to the received PDU's
	// start. Otherwise a device draws one phase over span for both
	// schedules (none when span ≤ 0), and latency runs to the packet's end.
	multi        bool
	span, circle timebase.Ticks

	// minOverlap is the shortest joint presence a pair is judged on.
	minOverlap timebase.Ticks
}

// deviceCrowd is the single-channel crowd of identical devices dev.
func deviceCrowd(dev schedule.Device) crowd {
	return crowd{
		beacons: []schedule.BeaconSeq{dev.B},
		windows: []schedule.WindowSeq{dev.C},
		span:    phaseSpan(dev),
	}
}

// crowdTrial runs one crowd trial of n devices of kind k: the group
// builder places the devices on the arena's WorldNodes, drawing per node
// its arrival (when churning: uniform over the first half of the horizon,
// staying stay ticks or to the end), then its phases, and the kernel runs
// on a jitter stream seeded by one further draw — the draw order every
// crowd result is pinned to. The pair judge then reads the outcome, with
// contact records when churning.
func (s *Scratch) crowdTrial(k *crowd, n int, churn bool, stay timebase.Ticks, cfg Config, rng *rand.Rand) (ChurnTrialResult, WorldResult, error) {
	if n < 2 {
		return ChurnTrialResult{}, WorldResult{}, fmt.Errorf("sim: group size %d must be ≥ 2", n)
	}
	if churn && cfg.Horizon < 2 {
		return ChurnTrialResult{}, WorldResult{}, fmt.Errorf("sim: churn horizon %d must be ≥ 2", cfg.Horizon)
	}
	ch := len(k.beacons)
	nodes := s.worldNodes(n, ch)
	for i := range nodes {
		var arrive, depart timebase.Ticks
		if churn {
			arrive = timebase.Ticks(rng.Int63n(int64(cfg.Horizon / 2)))
			if stay > 0 {
				depart = arrive + stay
			}
		}
		pe := randPhase(rng, k.span)
		pl := pe
		if k.multi {
			pe, pl = -pe, -randPhase(rng, k.circle)
		}
		em, ls := s.nodeEmits(i, ch), s.nodeListens(i, ch)
		for c := range em {
			em[c] = Emission{Channel: c, B: k.beacons[c], Phase: pe}
			ls[c] = Listening{Channel: c, C: k.windows[c], Phase: pl}
		}
		nodes[i] = WorldNode{Emits: em, Listens: ls, Arrive: arrive, Depart: depart}
	}
	wr, err := RunWorldScratch(nodes, cfg, s.jitterRand(rng.Int63()), s)
	if err != nil {
		return ChurnTrialResult{}, WorldResult{}, err
	}
	return s.judge(k, nodes, wr, cfg.Horizon, churn), wr, nil
}

// judge reads every ordered (receiver, sender) pair of a crowd run, in
// receiver-major order, into the arena's result: pairs jointly present for
// less than k.minOverlap are skipped, and a judged pair's latency runs
// from its joint-presence instant to the first received packet's end
// (single-channel) or start (multi-channel).
func (s *Scratch) judge(k *crowd, nodes []WorldNode, wr WorldResult, horizon timebase.Ticks, contacts bool) ChurnTrialResult {
	out := &s.result
	out.GroupTrialResult = GroupTrialResult{
		Samples:       out.Samples[:0],
		Transmissions: wr.Transmissions,
		Collided:      wr.Collided,
		PerChannel:    wr.PerChannel,
		Discoveries:   grow(out.Discoveries, len(wr.PerChannel)),
	}
	clear(out.Discoveries)
	out.Contacts = out.Contacts[:0]
	for r := range nodes {
		for snd := range nodes {
			if r == snd {
				continue
			}
			both := max(nodes[r].Arrive, nodes[snd].Arrive)
			overlap := min(nodes[r].departOr(horizon), nodes[snd].departOr(horizon)) - both
			if overlap < k.minOverlap {
				continue // contact too short to judge
			}
			c := Contact{Overlap: overlap}
			if rec, ok := wr.FirstReception(r, snd); ok {
				at := rec.End
				if k.multi {
					at = rec.Start
				}
				if at >= both {
					c.Discovered, c.Latency = true, at-both
					out.Samples = append(out.Samples, c.Latency)
					out.Discoveries[rec.Channel]++
				}
			}
			if !c.Discovered {
				out.Misses++
			}
			if contacts {
				out.Contacts = append(out.Contacts, c)
			}
		}
	}
	return *out
}

// escalate runs a quiet two-node world of equal-length packets — node 0
// sending, node 1 receiving — over horizon start, doubling it after each
// miss up to limit, and returns the receiver's first reception. Both nodes
// depart tail ticks after each run's horizon. Discovery typically lands
// within a cycle or two, so trials that discover cost O(discovery delay),
// not O(limit), and the doubling bounds a missing trial at ~2× one full
// run. A reception found in a truncated run IS the overall first: with
// equal lengths and no cross-packet effects, an earlier one would start
// and end earlier still and be present in the same run.
func (s *Scratch) escalate(nodes []WorldNode, start, limit, tail timebase.Ticks) (Reception, bool, error) {
	for h := min(start, limit); ; h = min(2*h, limit) {
		nodes[0].Depart, nodes[1].Depart = h+tail, h+tail
		wr, err := RunWorldScratch(nodes, Config{Horizon: h}, nil, s)
		if err != nil {
			return Reception{}, false, err
		}
		if rec, ok := wr.FirstReception(1, 0); ok {
			return rec, true, nil
		}
		if h == limit {
			return Reception{}, false, nil
		}
	}
}
