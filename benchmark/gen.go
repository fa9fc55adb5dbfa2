package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/timebase"
)

// Input generation. Every workload's inputs are a pure function of the
// --seed argument and an op (or job) index; the program under test only
// ever sees the generated specs.

const (
	omegaPaper = 36 * timebase.Microsecond
	omegaBLE   = 128 * timebase.Microsecond

	// coldPerKind designs of each kind make one cold-design op
	// (len(designKinds) × coldPerKind points), each run for coldTrials.
	coldPerKind = 24
	coldTrials  = 64

	// uniqSpan is the range of the integer parameter offset that makes
	// integer-parameter designs (slot lengths, scan windows) distinct. Op
	// k's j'th design of a kind takes offset base + k + j·uniqStride: every
	// op spreads its designs over the whole range (so ops cost alike for
	// every seed), and keys repeat only every uniqStride ops — far outside
	// the engine's 256-entry build cache, which holds about one op.
	uniqSpan   = 2000
	uniqStride = uniqSpan / coldPerKind
)

// splitmix folds (seed, stream, index) into one well-mixed 64-bit value.
func splitmix(seed int64, stream, index uint64) uint64 {
	x := uint64(seed) ^ stream*0xd1b54a32d192ed03 ^ (index+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Generator streams keep the workloads' random draws independent.
const (
	streamCold uint64 = iota + 1
	streamColdSeed
	streamWarm
	streamExact
	streamMC
	streamNDD
	streamOffset
)

func newRand(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(seed, stream, index) >> 1)))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// designKind is one protocol family of the design workloads: its horizon
// rule and a constructor from a random stream and a unique integer offset
// u ∈ [0, uniqSpan).
type designKind struct {
	kind    string
	horizon engine.HorizonSpec
	spec    func(r *rand.Rand, u int) engine.ProtocolSpec
}

// Deterministic schedules scale the horizon with their exact worst case;
// the continuous-time slotted kinds' stripped one-way schedules are not
// deterministic, so theirs scales with the period (as in the protocols
// suite).
var (
	worstHorizon  = engine.HorizonSpec{WorstMultiple: 2}
	periodHorizon = engine.HorizonSpec{PeriodMultiple: 3}
)

func slotLen(u int) timebase.Ticks { return 4*timebase.Millisecond + timebase.Ticks(u) }

var designKinds = []designKind{
	{"optimal", worstHorizon, func(r *rand.Rand, _ int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "optimal", Omega: omegaPaper, Alpha: 1, Eta: uniform(r, 0.02, 0.06)}
	}},
	{"pi-optimal", worstHorizon, func(r *rand.Rand, _ int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "pi-optimal", Omega: omegaPaper, Alpha: 1, Eta: uniform(r, 0.02, 0.06)}
	}},
	{"asymmetric", worstHorizon, func(r *rand.Rand, _ int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "asymmetric", Omega: omegaPaper, Alpha: 1,
			EtaE: uniform(r, 0.01, 0.03), EtaF: uniform(r, 0.05, 0.10)}
	}},
	{"disco", periodHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "disco", Omega: omegaPaper, Alpha: 1, P1: 37, P2: 43, SlotLen: slotLen(u)}
	}},
	{"uconnect", periodHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "uconnect", Omega: omegaPaper, Alpha: 1, P: 31, SlotLen: slotLen(u)}
	}},
	{"searchlight", periodHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "searchlight", Omega: omegaPaper, Alpha: 1, T: 16, Striped: true, SlotLen: slotLen(u)}
	}},
	{"diffcode", periodHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "diffcode", Omega: omegaPaper, Alpha: 1, Q: 7, SlotLen: slotLen(u)}
	}},
	{"multichannel", worstHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		// Ta and Ts stay fixed so the hyperperiod (and the analysis
		// cost) does not depend on the draw; the scan window carries u.
		return engine.ProtocolSpec{Kind: "multichannel", Omega: omegaBLE, Alpha: 1,
			Ta: 20 * timebase.Millisecond, Ts: 30 * timebase.Millisecond,
			Ds: 15*timebase.Millisecond + timebase.Ticks(u)}
	}},
	{"slot-disco", worstHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "slot-disco", Omega: omegaPaper, Alpha: 1, P1: 37, P2: 43, SlotLen: slotLen(u)}
	}},
	{"slot-uconnect", worstHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "slot-uconnect", Omega: omegaPaper, Alpha: 1, P: 31, SlotLen: slotLen(u)}
	}},
	{"slot-searchlight", worstHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "slot-searchlight", Omega: omegaPaper, Alpha: 1, T: 16, SlotLen: slotLen(u)}
	}},
	{"slot-diffcode", worstHorizon, func(_ *rand.Rand, u int) engine.ProtocolSpec {
		return engine.ProtocolSpec{Kind: "slot-diffcode", Omega: omegaPaper, Alpha: 1, Q: 7, SlotLen: slotLen(u)}
	}},
}

// offsetBase is the seed's starting point in the unique-offset ring.
func offsetBase(seed int64) int { return int(splitmix(seed, streamOffset, 0) % uniqSpan) }

// uniqOffset is the j'th design's offset of op (negative ops are the
// set-up warm-up batches, which sit just below op 0 on the ring).
func uniqOffset(seed int64, op, j int) int {
	u := (offsetBase(seed) + op + j*uniqStride) % uniqSpan
	if u < 0 {
		u += uniqSpan
	}
	return u
}

// coldBatch generates op's design batch: perKind designs of every kind,
// interleaved so expensive kinds spread over the batch. Parameters come
// from (seed, op), so every point of every op is a distinct build key.
func coldBatch(seed int64, op, perKind int) []engine.Scenario {
	r := newRand(seed, streamCold, uint64(op))
	trialSeed := int64(splitmix(seed, streamColdSeed, 0) >> 1)
	out := make([]engine.Scenario, 0, perKind*len(designKinds))
	for j := 0; j < perKind; j++ {
		for _, k := range designKinds {
			out = append(out, engine.Scenario{
				Name:       fmt.Sprintf("cold-%d-%d-%s", op, j, k.kind),
				Protocol:   k.spec(r, uniqOffset(seed, op, j)),
				Population: 2,
				Trials:     coldTrials,
				Horizon:    k.horizon,
				Seed:       trialSeed,
			})
		}
	}
	return out
}

// Warm Monte-Carlo suite: the crowd presets replicated over seeds, plus
// quiet pair presets with enough trials to engage the streaming
// accumulator (more than 2^18 expected samples).
const (
	warmReplicas     = 3
	warmStreamTrials = 1<<18 + 1
)

var (
	warmCrowd = []string{"busynetwork-jitter", "ble3-crowd", "churn-busy"}
	warmQuiet = []string{"quickstart", "ble3-fast"}
)

func warmSuite(seed int64) ([]engine.Scenario, error) {
	r := newRand(seed, streamWarm, 0)
	var out []engine.Scenario
	for rep := 0; rep < warmReplicas; rep++ {
		for _, name := range warmCrowd {
			sc, err := engine.Preset(name)
			if err != nil {
				return nil, err
			}
			sc.Name = fmt.Sprintf("%s-r%d", name, rep)
			sc.Seed = r.Int63()
			out = append(out, sc)
		}
	}
	for _, name := range warmQuiet {
		sc, err := engine.Preset(name)
		if err != nil {
			return nil, err
		}
		sc.Trials = warmStreamTrials
		sc.Seed = r.Int63()
		out = append(out, sc)
	}
	return out, nil
}

// ndd-mixed job classes.
const (
	classHit   = "hit"
	classExact = "exact"
	classMC    = "mc"
)

// classPattern weighs the three classes equally. No measured traffic says
// how real clients mix them, so the benchmark assumes no mix. Each client
// walks the pattern from a seed-chosen rotation, so the mix is the same for
// every seed while the order differs.
var classPattern = []string{classHit, classExact, classMC}

// jobClass is the class of a client's i'th job.
func jobClass(seed int64, client, i int) string {
	rot := int(splitmix(seed, streamNDD, uint64(client)) % uint64(len(classPattern)))
	return classPattern[(rot+i)%len(classPattern)]
}

// exactKinds are the deterministic quiet-channel pair designs an exact
// query asks about.
var exactKinds = []string{"optimal", "pi-optimal", "asymmetric", "slot-uconnect"}

func kindByName(name string) designKind {
	for _, k := range designKinds {
		if k.kind == name {
			return k
		}
	}
	panic("benchmark: unknown design kind " + name)
}

// exactJob is a new exact design query: one design of each exactKinds
// kind, with parameters from (seed, client, index), so every design is a
// build-cache miss. Client −1 is the set-up pool.
func exactJob(seed int64, client, i int) []engine.Scenario {
	idx := uint64(client+1)<<32 | uint64(i)
	r := newRand(seed, streamExact, idx)
	u := int(splitmix(seed, streamExact, idx) % uniqSpan)
	out := make([]engine.Scenario, 0, len(exactKinds))
	for _, name := range exactKinds {
		k := kindByName(name)
		out = append(out, engine.Scenario{
			Name:       fmt.Sprintf("exact-%d-%d-%s", client, i, name),
			Protocol:   k.spec(r, u),
			Population: 2,
			Horizon:    k.horizon,
			Exact:      true,
		})
	}
	return out
}

// mcDesigns are the small Monte-Carlo jobs: registry presets (warm builds
// after set-up) at a reduced trial count, run with a fresh seed. The trial
// counts are a choice, not measured traffic: they keep a job's engine work
// to milliseconds, small enough for the service overhead to show.
var mcDesigns = []struct {
	preset string
	trials int
}{
	{"quickstart", 2000},
	{"ble3-fast", 2000},
	{"busynetwork-jitter", 4},
	{"ble3-crowd", 8},
	{"churn-busy", 8},
}

// mcJob is a new Monte-Carlo job: a preset with a fresh seed.
func mcJob(seed int64, client, i int) ([]engine.Scenario, error) {
	idx := uint64(client+1)<<32 | uint64(i)
	d := mcDesigns[splitmix(seed, streamMC, idx)%uint64(len(mcDesigns))]
	sc, err := engine.Preset(d.preset)
	if err != nil {
		return nil, err
	}
	sc.Name = fmt.Sprintf("mc-%d-%d-%s", client, i, d.preset)
	sc.Trials = d.trials
	sc.Seed = int64(splitmix(seed, streamMC, idx^0xabcdef) >> 1)
	return []engine.Scenario{sc}, nil
}
