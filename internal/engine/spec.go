// Package engine is the batch-experiment subsystem. A scenario flows
// through a fixed pipeline, one file per stage:
//
//   - spec.go: declarative, JSON-serializable Scenario specifications
//     (protocol kind, population, channel model, churn, horizon, trials,
//     seed), validated before anything is built.
//   - build.go: the protocol-kind dispatch — schedule construction, exact
//     coverage/branch/slot analyses, duty-cycles and fundamental bounds,
//     memoized in a capped LRU.
//   - run.go: the scheduler — every trial of every scenario shards over
//     one shared worker pool, each on its own deterministic RNG stream.
//   - accum.go, aggregate.go: one aggregation state — a sparse,
//     all-integer latency → count accumulator (quantized to at most 4096
//     bins on large points) that merges order-insensitively — and its
//     finalizer into the Aggregate output shape.
//   - sweep.go, adaptive.go: the search layer — fixed cartesian grids
//     (SweepSpec) and coarse-to-fine adaptive refinement toward an
//     objective (AdaptiveSpec), both generating ordinary scenarios.
//   - report.go: text tables, per-channel tables, ASCII CDF plots,
//     adaptive refinement traces, deterministic indented JSON.
//   - registry.go: named presets, suites, sweeps and adaptive searches
//     (disjoint namespaces, self-validated at init), generalizing the
//     examples/ programs.
//
// The determinism contract: for a given spec (including its Seed), every
// result — scenario aggregate, sweep grid, adaptive refinement trace — is
// bit-identical no matter how many workers execute it. Each trial draws
// randomness from its own stream, seeded from the scenario's identity
// hash and the trial index — never from shared state. The committed
// golden files under testdata/golden/ pin this end to end; see
// docs/ARCHITECTURE.md for the full layer map and extension recipes.
package engine

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/timebase"
)

// ProtocolSpec declaratively names a protocol construction and its
// parameters. Kind selects the constructor; only the fields that kind uses
// are consulted. Zero-valued optional fields take kind-specific defaults.
type ProtocolSpec struct {
	// Kind is one of: "optimal" (Theorem 5.5 symmetric construction),
	// "asymmetric" (Theorem 5.7), "constrained" (Theorem 5.6),
	// "pi-optimal" (the optimal construction expressed as BLE-like PI
	// parameters), "ble" (a named BLE preset), "pi" (explicit Ta/Ts/Ds),
	// "disco", "uconnect", "searchlight", "diffcode" (the Table 1 slotted
	// protocols simulated in continuous time), "multichannel" (a BLE-style
	// advertiser rotating each event over several advertising channels
	// against a channel-cycling scanner), "multichannel-group" /
	// "multichannel-churn" (N such devices, each advertising on every
	// channel and scanning the cycle, with per-channel collision
	// accounting — statically present or arriving/departing), or
	// "slot-disco", "slot-uconnect", "slot-searchlight", "slot-diffcode"
	// (the slotted protocols simulated on an aligned slot grid, the
	// slot-domain literature's model).
	Kind string `json:"kind"`

	// Omega is the packet airtime ω in ticks; Alpha the TX/RX power ratio
	// (default 1).
	Omega timebase.Ticks `json:"omega"`
	Alpha float64        `json:"alpha,omitempty"`

	// Eta is the per-device total duty-cycle for "optimal", "constrained"
	// and "pi-optimal"; EtaE/EtaF are the two budgets for "asymmetric".
	Eta  float64 `json:"eta,omitempty"`
	EtaE float64 `json:"eta_e,omitempty"`
	EtaF float64 `json:"eta_f,omitempty"`

	// BetaMax caps channel utilization for "constrained". If zero and PF
	// is set, the cap is solved from the Appendix B redundancy design for
	// failure probability ≤ PF among the scenario's population.
	BetaMax float64 `json:"beta_max,omitempty"`
	PF      float64 `json:"pf,omitempty"`

	// Slotted-protocol parameters: Disco primes P1 < P2, U-Connect prime
	// P, Diffcode order Q, Searchlight period T (Striped selects
	// Searchlight-S), and the slot length.
	P1      int            `json:"p1,omitempty"`
	P2      int            `json:"p2,omitempty"`
	P       int            `json:"p,omitempty"`
	Q       int            `json:"q,omitempty"`
	T       int            `json:"t,omitempty"`
	Striped bool           `json:"striped,omitempty"`
	SlotLen timebase.Ticks `json:"slot_len,omitempty"`

	// Preset names a BLE operating point for kinds "ble" and
	// "multichannel": "fast", "balanced" or "lowpower". For
	// "multichannel" it fills whichever of Ta/Ts/Ds are zero.
	Preset string `json:"preset,omitempty"`

	// Explicit periodic-interval parameters for kinds "pi" and
	// "multichannel".
	Ta timebase.Ticks `json:"ta,omitempty"`
	Ts timebase.Ticks `json:"ts,omitempty"`
	Ds timebase.Ticks `json:"ds,omitempty"`

	// The PDU model for kind "multichannel": every advertising interval
	// the device sends one PDU per channel, Channels channels back to
	// back, spaced IFS apart, while the scanner listens to one channel
	// per scan interval, cycling through all of them. Channels defaults
	// to BLE's 3 advertising channels and IFS to the BLE 150 µs
	// inter-frame space.
	Channels int            `json:"channels,omitempty"`
	IFS      timebase.Ticks `json:"ifs,omitempty"`
}

// MultiChannel reports whether the spec names the multi-channel pair kind.
func (p ProtocolSpec) MultiChannel() bool { return p.Kind == "multichannel" }

// MultiChannelGroup reports whether the spec names a multi-node
// multi-channel kind, which runs on the world kernel with per-channel
// collision accounting.
func (p ProtocolSpec) MultiChannelGroup() bool {
	return p.Kind == "multichannel-group" || p.Kind == "multichannel-churn"
}

// SlotDomain reports whether the spec names a slot-aligned kind.
func (p ProtocolSpec) SlotDomain() bool {
	switch p.Kind {
	case "slot-disco", "slot-uconnect", "slot-searchlight", "slot-diffcode":
		return true
	}
	return false
}

// ChannelSpec selects the channel and radio semantics of the simulation.
type ChannelSpec struct {
	Collisions       bool           `json:"collisions,omitempty"`
	HalfDuplex       bool           `json:"half_duplex,omitempty"`
	TruncatedWindows bool           `json:"truncated_windows,omitempty"`
	Jitter           timebase.Ticks `json:"jitter,omitempty"`
}

// ChurnSpec, when present, switches the scenario to the mobility workload:
// devices arrive at random times in the first half of the horizon and stay
// for the given duration (exactly one of the fields must be set; 0 + 0 is
// invalid).
type ChurnSpec struct {
	// Stay is the explicit presence duration in ticks.
	Stay timebase.Ticks `json:"stay,omitempty"`
	// StayWorstMultiple expresses the stay as a multiple of the exact
	// worst-case pair latency (requires a deterministic schedule).
	StayWorstMultiple float64 `json:"stay_worst_multiple,omitempty"`
}

// HorizonSpec resolves the simulated duration. Exactly one field should be
// set; an all-zero spec defaults to 3× the exact worst case when the
// schedule is deterministic and 20× the longest schedule period otherwise.
type HorizonSpec struct {
	// Ticks is an explicit horizon.
	Ticks timebase.Ticks `json:"ticks,omitempty"`
	// WorstMultiple scales the exact worst-case pair latency (requires a
	// deterministic schedule).
	WorstMultiple float64 `json:"worst_multiple,omitempty"`
	// PeriodMultiple scales the longest schedule period.
	PeriodMultiple float64 `json:"period_multiple,omitempty"`
}

// Scenario is one declarative experiment: a protocol, a population, a
// channel model, an optional churn process, and a trial count. It is the
// unit of work the executor shards and the registry names.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Protocol ProtocolSpec `json:"protocol"`

	// Population is the number of devices in range of each other; 2
	// selects the pair workload (sender E against listener F), larger
	// values the group workload of identical devices.
	Population int `json:"population"`

	// Trials is the number of independent Monte-Carlo trials.
	Trials int `json:"trials"`

	Horizon HorizonSpec `json:"horizon"`
	Channel ChannelSpec `json:"channel"`
	Churn   *ChurnSpec  `json:"churn,omitempty"`

	// Seed folds into every per-trial RNG stream; two scenarios differing
	// only in Seed run disjoint randomness.
	Seed int64 `json:"seed"`

	// Exact switches the scenario to the exact-analysis fast path: the
	// aggregate is answered from the schedule's already-computed coverage
	// analysis (worst/mean latency, covered fraction, bound ratio) and no
	// Monte-Carlo trials run at all. Only deterministic quiet-channel pair
	// questions qualify — population 2, no churn, a zero channel model, and
	// a schedule whose analysis is deterministic; anything stochastic is
	// rejected loudly at prepare time (see exactEligible). Trials is forced
	// to 0 in the effective spec, and the resulting aggregate carries the
	// ExactMode flag.
	Exact bool `json:"exact,omitempty"`
}

// Validate checks the parts of the spec that can be judged without
// building the protocol.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("engine: scenario needs a name")
	}
	if s.Protocol.Kind == "" {
		return fmt.Errorf("engine: scenario %q needs a protocol kind", s.Name)
	}
	if s.Protocol.Omega <= 0 {
		return fmt.Errorf("engine: scenario %q: omega %d must be positive", s.Name, s.Protocol.Omega)
	}
	if s.Population < 2 {
		return fmt.Errorf("engine: scenario %q: population %d must be ≥ 2", s.Name, s.Population)
	}
	// Exact points run no trials, so their effective specs (and snapshots
	// of them) legitimately carry Trials == 0.
	if s.Trials < 1 && !s.Exact {
		return fmt.Errorf("engine: scenario %q: trials %d must be ≥ 1", s.Name, s.Trials)
	}
	if s.Trials < 0 {
		return fmt.Errorf("engine: scenario %q: trials %d must be ≥ 0", s.Name, s.Trials)
	}
	if s.Channel.Jitter < 0 {
		return fmt.Errorf("engine: scenario %q: jitter %d must be ≥ 0", s.Name, s.Channel.Jitter)
	}
	if s.Protocol.Channels < 0 {
		return fmt.Errorf("engine: scenario %q: channels %d must be ≥ 0", s.Name, s.Protocol.Channels)
	}
	if s.Protocol.IFS < 0 {
		return fmt.Errorf("engine: scenario %q: ifs %d must be ≥ 0", s.Name, s.Protocol.IFS)
	}
	if s.Protocol.MultiChannel() || s.Protocol.SlotDomain() {
		// These kinds run on their own per-trial primitives, which model
		// a quiet pair channel: no ALOHA collisions, no jitter, and only
		// the two-device workload.
		if s.Population != 2 {
			return fmt.Errorf("engine: scenario %q: kind %q supports only the pair workload (population 2)", s.Name, s.Protocol.Kind)
		}
		if s.Churn != nil {
			return fmt.Errorf("engine: scenario %q: kind %q does not support churn", s.Name, s.Protocol.Kind)
		}
		if s.Channel != (ChannelSpec{}) {
			return fmt.Errorf("engine: scenario %q: kind %q does not support a channel model (collisions, half-duplex, truncation, jitter)", s.Name, s.Protocol.Kind)
		}
	}
	if s.Protocol.Kind == "multichannel-group" && s.Churn != nil {
		return fmt.Errorf("engine: scenario %q: kind multichannel-group models a static population; use multichannel-churn", s.Name)
	}
	if s.Protocol.Kind == "multichannel-churn" && s.Churn == nil {
		return fmt.Errorf("engine: scenario %q: kind multichannel-churn needs a churn spec", s.Name)
	}
	if s.Churn != nil {
		// Negative values would skip the > 0 branches of resolveStay and
		// silently fall through to defaults — reject them outright.
		if s.Churn.Stay < 0 {
			return fmt.Errorf("engine: scenario %q: churn stay %d must be positive", s.Name, s.Churn.Stay)
		}
		if s.Churn.StayWorstMultiple < 0 {
			return fmt.Errorf("engine: scenario %q: churn stay_worst_multiple %g must be positive", s.Name, s.Churn.StayWorstMultiple)
		}
		if s.Churn.Stay == 0 && s.Churn.StayWorstMultiple == 0 {
			return fmt.Errorf("engine: scenario %q: churn needs stay or stay_worst_multiple", s.Name)
		}
		if s.Churn.Stay != 0 && s.Churn.StayWorstMultiple != 0 {
			return fmt.Errorf("engine: scenario %q: churn stay over-specified", s.Name)
		}
	}
	h := s.Horizon
	// Same story for the horizon: resolveHorizon ignores negative values,
	// so they must not pass validation.
	if h.Ticks < 0 {
		return fmt.Errorf("engine: scenario %q: horizon ticks %d must be positive", s.Name, h.Ticks)
	}
	if h.WorstMultiple < 0 {
		return fmt.Errorf("engine: scenario %q: horizon worst_multiple %g must be positive", s.Name, h.WorstMultiple)
	}
	if h.PeriodMultiple < 0 {
		return fmt.Errorf("engine: scenario %q: horizon period_multiple %g must be positive", s.Name, h.PeriodMultiple)
	}
	set := 0
	if h.Ticks > 0 {
		set++
	}
	if h.WorstMultiple > 0 {
		set++
	}
	if h.PeriodMultiple > 0 {
		set++
	}
	if set > 1 {
		return fmt.Errorf("engine: scenario %q: horizon over-specified", s.Name)
	}
	return nil
}

// Hash is the scenario's identity for RNG derivation: an FNV-64a digest of
// the canonical JSON encoding with the cosmetic fields (Name, Description)
// and the trial count zeroed out. Excluding the cosmetic fields means
// renaming a scenario never changes its results; excluding Trials gives
// seeds a prefix property — raising the trial count keeps the randomness
// of the existing trials and appends new streams, so a longer run extends
// rather than reshuffles a shorter one.
func (s Scenario) Hash() uint64 {
	c := s
	c.Name = ""
	c.Description = ""
	c.Trials = 0
	blob, err := json.Marshal(c)
	if err != nil {
		// Scenario contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("engine: hash: %v", err))
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// trialSeed derives the trial'th RNG seed from the scenario hash with a
// splitmix64 finalizer, so neighboring trial indices yield statistically
// independent streams.
func trialSeed(hash uint64, trial int) int64 {
	x := hash + 0x9e3779b97f4a7c15*uint64(trial+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // keep it non-negative for readability in dumps
}
