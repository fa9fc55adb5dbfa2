package sim

import (
	"math/rand"

	"repro/internal/interval"
	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// Scratch is a per-worker arena for the simulation kernel: every slice and
// RNG the hot path needs lives here and is reused across trials, so a
// steady-state trial allocates nothing beyond the samples it hands back. A
// Scratch is NOT safe for concurrent use — the engine owns one per worker
// goroutine, and a serial caller holds one across its loop. Reuse never
// changes a result: a trial on a reused arena is bit-identical to the same
// trial on a fresh one.
//
// Ownership rule: a WorldResult produced through a Scratch aliases the
// arena (its first-reception table and PerChannel loads). It is valid only
// until the next kernel run on the same Scratch; callers that keep data
// across trials must copy it out first (see poolMultiChannel's PerChannel
// copy).
type Scratch struct {
	// Kernel buffers (RunWorldScratch).
	txs          []transmission
	runs         []txRun          // per-emission sorted segments of txs
	nodeRuns     []int            // node i's runs are runs[nodeRuns[i]:nodeRuns[i+1]]
	keys, keyBuf []interval.Keyed // collision pass: packets in start order, sort spare
	furthest     []furthest       // collision pass: per-channel running furthest end
	emMax        []timebase.Ticks // per-emission airtime maxima (half-duplex)
	emBase       []int            // per-node first emission ordinal
	perLoad      []ChannelLoad
	receptions   []firstCell // nodes × nodes first receptions, row-major by receiver

	// Node-building buffers (trial primitives).
	nodes     []Node
	wnodes    []WorldNode
	emitBuf   []Emission
	listenBuf []Listening

	// Multi-channel schedule templates, memoized per config: the beacon and
	// window sequences of advertiserEmissions/scannerListens depend only on
	// the multichannel.Config, not the per-trial phase.
	mcCfg     multichannel.Config
	mcBeacons []schedule.BeaconSeq
	mcWindows []schedule.WindowSeq

	// Reseedable RNGs: trialRand is the engine's per-trial stream (Rand),
	// childSrc/childRand the jitter stream the trial primitives derive from
	// it. Reseeding a splitmix in place yields the exact stream a fresh
	// rand.New(NewFastSource(seed)) would, so reuse is bit-identical.
	trialSrc  splitmix
	trialRand *rand.Rand
	childSrc  splitmix
	childRand *rand.Rand
}

// NewScratch returns an empty arena. Buffers grow on first use and are
// retained at high-water size afterwards.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.trialRand = rand.New(&s.trialSrc)
	s.childRand = rand.New(&s.childSrc)
	return s
}

// Rand reseeds the arena's trial RNG in place and returns it: the stream
// is bit-identical to rand.New(NewFastSource(seed)) without the two
// allocations. The returned *rand.Rand is owned by the Scratch and valid
// until the next Rand call.
func (s *Scratch) Rand(seed int64) *rand.Rand {
	s.trialSrc.Seed(seed)
	return s.trialRand
}

// jitterRand reseeds the arena's jitter RNG in place and returns it, for a
// kernel run within the same Scratch; like Rand, its stream is
// bit-identical to rand.New(NewFastSource(seed)).
func (s *Scratch) jitterRand(seed int64) *rand.Rand {
	s.childSrc.Seed(seed)
	return s.childRand
}

// grow returns s resized to length n, reallocating only when the capacity
// is insufficient. Contents are NOT cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// mcTemplates returns the per-channel beacon and window sequences for a
// multi-channel config, memoized so repeated trials of the same scenario
// skip the per-channel slice allocations. The sequences are extracted from
// the canonical zero-phase builders (advertiserEmissions/scannerListens) —
// only Phase varies per trial, and Phase lives outside the sequences.
func (s *Scratch) mcTemplates(mc multichannel.Config) ([]schedule.BeaconSeq, []schedule.WindowSeq) {
	if s.mcBeacons != nil && s.mcCfg == mc {
		return s.mcBeacons, s.mcWindows
	}
	bs := make([]schedule.BeaconSeq, mc.Channels)
	ws := make([]schedule.WindowSeq, mc.Channels)
	for c, em := range advertiserEmissions(mc, 0) {
		bs[c] = em.B
	}
	for c, ls := range scannerListens(mc, 0) {
		ws[c] = ls.C
	}
	s.mcCfg, s.mcBeacons, s.mcWindows = mc, bs, ws
	return bs, ws
}

// worldNodes returns the arena's WorldNode buffer resized to n, with the
// per-node emission and listening backing arrays sized for per-node counts
// emits and listens. Node i's slices are emitBuf[i*emits : (i+1)*emits]
// and likewise for listens; callers fill them by index.
func (s *Scratch) worldNodes(n, emits, listens int) []WorldNode {
	s.wnodes = grow(s.wnodes, n)
	for i := range s.wnodes {
		s.wnodes[i] = WorldNode{}
	}
	s.emitBuf = grow(s.emitBuf, n*emits)
	s.listenBuf = grow(s.listenBuf, n*listens)
	return s.wnodes
}

// nodeEmits returns node i's emission sub-slice (per-node count emits),
// capacity-clamped so appends cannot bleed into a neighbor's range.
func (s *Scratch) nodeEmits(i, emits int) []Emission {
	return s.emitBuf[i*emits : (i+1)*emits : (i+1)*emits]
}

// nodeListens returns node i's listening sub-slice.
func (s *Scratch) nodeListens(i, listens int) []Listening {
	return s.listenBuf[i*listens : (i+1)*listens : (i+1)*listens]
}
