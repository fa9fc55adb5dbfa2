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
// (the workload multichannel.Analyze answers exactly) on the escalation
// runner, and the multi-node workloads the exact analysis cannot reach — N
// advertisers rotating channels with per-channel ALOHA collisions,
// statically present or churning in and out — on the group builder and the
// pair judge (trial.go).

// mcTemplates returns the per-channel schedules of a BLE-style device
// under mc, memoized in the arena per config (only the phases vary per
// trial, and phases live outside the sequences). The advertiser sends one
// PDU per channel every advertising interval Ta, back to back, spaced IFS
// apart (start to start: Omega + IFS), PDU c on channel c. The scanner
// listens Ds at the end of every scan interval Ts, on one channel per
// interval, cycling through all channels (cycle length Channels·Ts).
func (s *Scratch) mcTemplates(mc multichannel.Config) ([]schedule.BeaconSeq, []schedule.WindowSeq) {
	if s.mcBeacons != nil && s.mcCfg == mc {
		return s.mcBeacons, s.mcWindows
	}
	bs := make([]schedule.BeaconSeq, mc.Channels)
	ws := make([]schedule.WindowSeq, mc.Channels)
	for c := range bs {
		bs[c] = schedule.BeaconSeq{
			Beacons: []schedule.Beacon{{Time: timebase.Ticks(c) * (mc.Omega + mc.IFS), Len: mc.Omega}},
			Period:  mc.Ta,
		}
		ws[c] = schedule.WindowSeq{
			Windows: []schedule.Window{{Start: timebase.Ticks(c)*mc.Ts + mc.Ts - mc.Ds, Len: mc.Ds}},
			Period:  timebase.Ticks(mc.Channels) * mc.Ts,
		}
	}
	s.mcCfg, s.mcBeacons, s.mcWindows = mc, bs, ws
	return bs, ws
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
// PDUs that began before range entry are lost.
func MultiChannelPairTrialScratch(cfg multichannel.Config, horizon timebase.Ticks, rng *rand.Rand, scr *Scratch) (MultiChannelOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return MultiChannelOutcome{}, err
	}
	if horizon <= 0 {
		return MultiChannelOutcome{}, fmt.Errorf("sim: horizon %d must be positive", horizon)
	}
	// u places range entry u ticks after an advertising-event start; x is
	// the scanner's cycle position at range entry.
	u := randPhase(rng, cfg.Ta)
	x := randPhase(rng, timebase.Ticks(cfg.Channels)*cfg.Ts)
	return scr.mcPairAt(cfg, u, x, horizon)
}

// mcPairAt runs the multi-channel pair at event offset u and scanner cycle
// offset x, on the runner that starts at one advertiser/scanner cycle.
// Each node departs one PDU after the run's horizon, which keeps the pair
// model's censoring rule: a PDU counts iff it starts before the horizon,
// even when its airtime runs past it.
func (s *Scratch) mcPairAt(cfg multichannel.Config, u, x, horizon timebase.Ticks) (MultiChannelOutcome, error) {
	bs, ws := s.mcTemplates(cfg)
	nodes := s.worldNodes(2, cfg.Channels)
	em, ls := s.nodeEmits(0, cfg.Channels), s.nodeListens(1, cfg.Channels)
	for c := range em {
		em[c] = Emission{Channel: c, B: bs[c], Phase: -u}
		ls[c] = Listening{Channel: c, C: ws[c], Phase: -x}
	}
	nodes[0], nodes[1] = WorldNode{Emits: em}, WorldNode{Listens: ls}
	rec, ok, err := s.escalate(nodes, max(cfg.Ta, timebase.Ticks(cfg.Channels)*cfg.Ts), horizon, cfg.Omega)
	if !ok {
		return MultiChannelOutcome{}, err
	}
	return MultiChannelOutcome{Discovered: true, Latency: rec.Start, Channel: rec.Channel}, nil
}

// mcCrowd is the crowd of identical BLE-style devices under mc, each
// advertising every interval on all channels and scanning the channel
// cycle, on the arena's memoized templates.
func (s *Scratch) mcCrowd(mc multichannel.Config) (crowd, error) {
	if err := mc.Validate(); err != nil {
		return crowd{}, err
	}
	bs, ws := s.mcTemplates(mc)
	return crowd{beacons: bs, windows: ws, multi: true, span: mc.Ta, circle: timebase.Ticks(mc.Channels) * mc.Ts}, nil
}

// MultiChannelGroupTrialScratch runs one trial of s identical BLE-style
// devices, each advertising every interval on all channels and scanning
// the channel cycle, with phases drawn uniform per device — the multi-node
// multi-channel workload the pairwise analysis cannot model. The channel
// semantics (per-channel ALOHA collisions, half-duplex, jitter) come from
// cfg, and latency runs from t = 0 to the first received PDU's start.
func MultiChannelGroupTrialScratch(mc multichannel.Config, s int, cfg Config, rng *rand.Rand, scr *Scratch) (GroupTrialResult, error) {
	k, err := scr.mcCrowd(mc)
	if err != nil {
		return GroupTrialResult{}, err
	}
	res, _, err := scr.crowdTrial(&k, s, false, 0, cfg, rng)
	return res.GroupTrialResult, err
}

// MultiChannelChurnTrialScratch runs one trial of the churning
// multi-channel neighborhood: s identical BLE-style devices arrive at
// uniformly random times in the first half of the horizon and stay for
// stay ticks (0 = until the end). Ordered pairs whose joint presence spans
// at least the scanner's full channel cycle are judged — long enough that
// every channel got a chance, short enough that bounded contacts are still
// evaluated and can legitimately miss — and latency is measured from the
// joint-presence instant to the first received PDU's start.
func MultiChannelChurnTrialScratch(mc multichannel.Config, s int, stay timebase.Ticks, cfg Config, rng *rand.Rand, scr *Scratch) (ChurnTrialResult, error) {
	k, err := scr.mcCrowd(mc)
	if err != nil {
		return ChurnTrialResult{}, err
	}
	k.minOverlap = k.circle
	res, _, err := scr.crowdTrial(&k, s, true, stay, cfg, rng)
	return res, err
}
