package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file holds the multi-channel per-trial Monte-Carlo primitives, all
// thin configurations of the world kernel: the advertiser/scanner pair
// (the workload multichannel.Analyze answers exactly) and the multi-node
// workloads the exact analysis cannot reach — N advertisers rotating
// channels with per-channel ALOHA collisions, statically present or
// churning in and out. Every primitive follows the PairTrialScratch
// contract: all randomness comes from the caller-supplied rng, so a caller
// owning one rng per trial can shard trials across goroutines with results
// bit-identical to a serial loop.

// advertiserEmissions builds a BLE-style advertiser's kernel schedules:
// every advertising interval Ta, one PDU per channel, back to back, spaced
// IFS apart (start to start: Omega + IFS). Phase shifts the whole event
// train; the channel of PDU c is c.
func advertiserEmissions(mc multichannel.Config, phase timebase.Ticks) []Emission {
	out := make([]Emission, mc.Channels)
	for c := range out {
		out[c] = Emission{
			Channel: c,
			B: schedule.BeaconSeq{
				Beacons: []schedule.Beacon{{Time: timebase.Ticks(c) * (mc.Omega + mc.IFS), Len: mc.Omega}},
				Period:  mc.Ta,
			},
			Phase: phase,
		}
	}
	return out
}

// scannerListens builds a channel-cycling scanner's kernel schedules: the
// scanner listens Ds at the end of every scan interval Ts, on one channel
// per interval, cycling through all channels (cycle length Channels·Ts).
func scannerListens(mc multichannel.Config, phase timebase.Ticks) []Listening {
	circle := timebase.Ticks(mc.Channels) * mc.Ts
	out := make([]Listening, mc.Channels)
	for c := range out {
		out[c] = Listening{
			Channel: c,
			C: schedule.WindowSeq{
				Windows: []schedule.Window{{Start: timebase.Ticks(c)*mc.Ts + mc.Ts - mc.Ds, Len: mc.Ds}},
				Period:  circle,
			},
			Phase: phase,
		}
	}
	return out
}

// MultiChannelOutcome is the result of one multi-channel pair trial.
type MultiChannelOutcome struct {
	// Discovered reports whether a PDU was received within the horizon.
	Discovered bool

	// Latency is the time from range entry to the start of the first
	// received PDU — the same convention multichannel.Analyze labels
	// latencies with. Valid iff Discovered.
	Latency timebase.Ticks

	// Channel is the advertising channel of the received PDU. Valid iff
	// Discovered.
	Channel int
}

// MultiChannelPairTrialScratch runs one trial of a multi-channel
// advertiser against a channel-cycling scanner: the advertiser's event
// phase is drawn uniform over the advertising interval (so range entry is
// uniform in time) and the scanner's cycle offset uniform over its channel
// cycle, exactly the ensemble multichannel.Analyze integrates over. A PDU
// on channel c is received iff it starts inside the scanner's window on c;
// PDUs that began before range entry are lost. The kernel buffers, the
// node set and the per-channel schedule templates (memoized per config)
// all come from scr.
func MultiChannelPairTrialScratch(cfg multichannel.Config, horizon timebase.Ticks, rng *rand.Rand, scr *Scratch) (MultiChannelOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return MultiChannelOutcome{}, err
	}
	if horizon <= 0 {
		return MultiChannelOutcome{}, fmt.Errorf("sim: horizon %d must be positive", horizon)
	}
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts

	// u places range entry u ticks after an advertising-event start; x is
	// the scanner's cycle position at range entry.
	u := timebase.Ticks(rng.Int63n(int64(cfg.Ta)))
	x := timebase.Ticks(rng.Int63n(int64(circle)))

	bs, ws := scr.mcTemplates(cfg)

	// Escalating horizon: discovery typically lands within one
	// advertiser/scanner cycle, so start the kernel there and double up
	// to the caller's horizon only on a miss. All PDUs are Omega long and
	// the quiet pair channel has no cross-packet effects, so a reception
	// found in a truncated run IS the overall first (an earlier one would
	// start earlier still and be present in the same run) — trials that
	// discover cost O(discovery delay), not O(horizon).
	for h := minTicks(maxTicks(cfg.Ta, circle), horizon); ; h = minTicks(2*h, horizon) {
		// Depart past the horizon keeps the pair model's censoring rule: a
		// PDU counts iff it starts before the horizon, even when its
		// airtime runs past it (the kernel's presence window would
		// otherwise drop it).
		nodes := scr.worldNodes(2, cfg.Channels, cfg.Channels)
		em := scr.nodeEmits(0, cfg.Channels)
		ls := scr.nodeListens(1, cfg.Channels)
		for c := 0; c < cfg.Channels; c++ {
			em[c] = Emission{Channel: c, B: bs[c], Phase: -u}
			ls[c] = Listening{Channel: c, C: ws[c], Phase: -x}
		}
		nodes[0] = WorldNode{Emits: em, Depart: h + cfg.Omega}
		nodes[1] = WorldNode{Listens: ls, Depart: h + cfg.Omega}
		wr, err := RunWorldScratch(nodes, Config{Horizon: h}, nil, scr)
		if err != nil {
			return MultiChannelOutcome{}, err
		}
		if rec, ok := wr.FirstReception(1, 0); ok {
			return MultiChannelOutcome{Discovered: true, Latency: rec.Start, Channel: rec.Channel}, nil
		}
		if h == horizon {
			return MultiChannelOutcome{}, nil
		}
	}
}

// MultiChannelGroupResult is the outcome of one multi-node multi-channel
// trial (static group or churn).
type MultiChannelGroupResult struct {
	// Samples holds one latency per discovered ordered (receiver, sender)
	// pair, in deterministic receiver-major order: PDU start from t = 0 for
	// the static group, PDU start from the joint-presence instant for
	// churn. Misses counts the pairs (static) or judged contacts (churn)
	// that did not discover.
	Samples []timebase.Ticks
	Misses  int

	// Contacts holds the per-pair contact records of a churn trial (nil
	// for the static group), so callers can bin discovery ratios by
	// contact duration.
	Contacts []Contact

	// Channel statistics of the underlying kernel run: pooled and
	// per-advertising-channel packet counts, plus the discovery counts by
	// the channel of each pair's first received PDU. Aggregation across
	// trials pools counts, so every packet weighs the same.
	Transmissions, Collided int
	PerChannel              []ChannelLoad
	Discoveries             []int
}

// runMultiChannelWorld is the shared body of the multi-node trials: it
// draws each device's phases (and, when churning, its presence) in
// deterministic node order, builds the node set, and runs the kernel on a
// child RNG stream so the channel semantics (per-channel collisions,
// half-duplex, jitter) come from cfg.
func runMultiChannelWorld(mc multichannel.Config, s int, churn bool, stay timebase.Ticks, cfg Config, rng *rand.Rand, scr *Scratch) ([]WorldNode, WorldResult, error) {
	if err := mc.Validate(); err != nil {
		return nil, WorldResult{}, err
	}
	if s < 2 {
		return nil, WorldResult{}, fmt.Errorf("sim: group size %d must be ≥ 2", s)
	}
	circle := timebase.Ticks(mc.Channels) * mc.Ts
	bs, ws := scr.mcTemplates(mc)
	nodes := scr.worldNodes(s, mc.Channels, mc.Channels)
	for i := range nodes {
		var arrive, depart timebase.Ticks
		if churn {
			arrive = timebase.Ticks(rng.Int63n(int64(cfg.Horizon / 2)))
			if stay > 0 {
				depart = arrive + stay
			}
		}
		u := timebase.Ticks(rng.Int63n(int64(mc.Ta)))
		x := timebase.Ticks(rng.Int63n(int64(circle)))
		em := scr.nodeEmits(i, mc.Channels)
		ls := scr.nodeListens(i, mc.Channels)
		for c := 0; c < mc.Channels; c++ {
			em[c] = Emission{Channel: c, B: bs[c], Phase: -u}
			ls[c] = Listening{Channel: c, C: ws[c], Phase: -x}
		}
		nodes[i] = WorldNode{
			Emits:   em,
			Listens: ls,
			Arrive:  arrive,
			Depart:  depart,
		}
	}
	wr, err := RunWorldScratch(nodes, cfg, scr.jitterRand(rng.Int63()), scr)
	if err != nil {
		return nil, WorldResult{}, err
	}
	return nodes, wr, nil
}

// poolMultiChannel judges every ordered (receiver, sender) pair of the
// world run in receiver-major order, measuring latency from the pair's
// joint-presence instant: pairs whose presence overlap is below minOverlap
// are skipped, and contact records are kept when recordContacts is set
// (the churn view).
func poolMultiChannel(nodes []WorldNode, wr WorldResult, channels int, horizon, minOverlap timebase.Ticks, recordContacts bool) MultiChannelGroupResult {
	out := MultiChannelGroupResult{
		Transmissions: wr.Transmissions,
		Collided:      wr.Collided,
		// The kernel result may alias a reusable arena; the returned
		// per-channel loads must survive the next trial, so copy them.
		PerChannel:  append([]ChannelLoad(nil), wr.PerChannel...),
		Discoveries: make([]int, channels),
	}
	for r := range nodes {
		for snd := range nodes {
			if r == snd {
				continue
			}
			both := maxTicks(nodes[r].Arrive, nodes[snd].Arrive)
			until := minTicks(nodes[r].departOr(horizon), nodes[snd].departOr(horizon))
			overlap := until - both
			if overlap < minOverlap {
				continue // contact too short to judge
			}
			c := Contact{Overlap: overlap}
			if rec, ok := wr.FirstReception(r, snd); ok && rec.Start >= both {
				c.Discovered = true
				c.Latency = rec.Start - both
				out.Samples = append(out.Samples, c.Latency)
				out.Discoveries[rec.Channel]++
			} else {
				out.Misses++
			}
			if recordContacts {
				out.Contacts = append(out.Contacts, c)
			}
		}
	}
	return out
}

// MultiChannelGroupTrialScratch runs one trial of s identical BLE-style
// devices, each advertising every interval on all channels and scanning
// the channel cycle, with phases drawn uniform per device — the multi-node
// multi-channel workload the pairwise analysis cannot model. The channel
// semantics (per-channel ALOHA collisions, half-duplex, jitter) come from
// cfg. The returned result is fully owned by the caller (samples,
// contacts and per-channel loads are copied out of the arena).
func MultiChannelGroupTrialScratch(mc multichannel.Config, s int, cfg Config, rng *rand.Rand, scr *Scratch) (MultiChannelGroupResult, error) {
	nodes, wr, err := runMultiChannelWorld(mc, s, false, 0, cfg, rng, scr)
	if err != nil {
		return MultiChannelGroupResult{}, err
	}
	return poolMultiChannel(nodes, wr, mc.Channels, cfg.Horizon, 0, false), nil
}

// MultiChannelChurnTrialScratch runs one trial of the churning
// multi-channel neighborhood: s identical BLE-style devices arrive at
// uniformly random times in the first half of the horizon and stay for
// stay ticks (0 = until the end). Ordered pairs whose joint presence spans
// at least the scanner's full channel cycle are judged — long enough that
// every channel got a chance, short enough that bounded contacts are still
// evaluated and can legitimately miss — and latency is measured from the
// joint-presence instant to the first received PDU's start. The returned
// result is fully owned by the caller.
func MultiChannelChurnTrialScratch(mc multichannel.Config, s int, stay timebase.Ticks, cfg Config, rng *rand.Rand, scr *Scratch) (MultiChannelGroupResult, error) {
	if cfg.Horizon < 2 {
		return MultiChannelGroupResult{}, fmt.Errorf("sim: churn horizon %d must be ≥ 2", cfg.Horizon)
	}
	nodes, wr, err := runMultiChannelWorld(mc, s, true, stay, cfg, rng, scr)
	if err != nil {
		return MultiChannelGroupResult{}, err
	}
	minOverlap := timebase.Ticks(mc.Channels) * mc.Ts
	return poolMultiChannel(nodes, wr, mc.Channels, cfg.Horizon, minOverlap, true), nil
}
