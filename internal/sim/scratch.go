package sim

import (
	"math/rand"
	"unsafe"

	"repro/internal/interval"
	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// Scratch is a per-worker arena for the simulation kernel: every slice and
// RNG the hot path needs lives here and is reused across trials, so a
// steady-state trial of any kind allocates nothing. A Scratch is NOT safe
// for concurrent use — the engine's workers own one each, and a serial
// caller holds one across its loop. Reuse never changes a result: a trial
// on a reused arena is bit-identical to the same trial on a fresh one.
//
// Ownership rule, one for every output: whatever a trial or kernel run
// returns through a Scratch — a WorldResult's first-reception table and
// PerChannel loads, a crowd result's Samples, Discoveries and Contacts —
// lives in the arena and is valid only until the next trial on the same
// Scratch. Callers that keep data across trials copy it out first.
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

	// Trial-layer buffers: the placed devices and the crowd outcome.
	wnodes    []WorldNode
	emitBuf   []Emission
	listenBuf []Listening
	result    ChurnTrialResult

	// Multi-channel schedule templates, memoized per config (mcTemplates).
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

// Footprint returns the bytes the arena's buffers hold at their current
// capacities: what keeping the arena for later trials keeps alive. The
// first-reception table grows with the square of the largest world run on
// the arena, the packet buffers with its packet count.
func (s *Scratch) Footprint() int {
	return capBytes(s.txs) + capBytes(s.runs) + capBytes(s.nodeRuns) +
		capBytes(s.keys) + capBytes(s.keyBuf) + capBytes(s.furthest) +
		capBytes(s.emMax) + capBytes(s.emBase) + capBytes(s.perLoad) +
		capBytes(s.receptions) + capBytes(s.wnodes) + capBytes(s.emitBuf) +
		capBytes(s.listenBuf) + capBytes(s.result.Samples) +
		capBytes(s.result.Discoveries) + capBytes(s.result.Contacts)
}

// capBytes is the size of s's backing array.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// grow returns s resized to length n, reallocating only when the capacity
// is insufficient. Contents are NOT cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// worldNodes returns the arena's WorldNode buffer resized to n and
// cleared, with per-node emission and listening backing arrays for per
// schedules each; nodeEmits and nodeListens hand out node i's share.
func (s *Scratch) worldNodes(n, per int) []WorldNode {
	s.wnodes = grow(s.wnodes, n)
	clear(s.wnodes)
	s.emitBuf = grow(s.emitBuf, n*per)
	s.listenBuf = grow(s.listenBuf, n*per)
	return s.wnodes
}

// nodeEmits returns node i's emission sub-slice, capacity-clamped so
// appends cannot bleed into a neighbor's range.
func (s *Scratch) nodeEmits(i, per int) []Emission {
	return s.emitBuf[i*per : (i+1)*per : (i+1)*per]
}

// nodeListens returns node i's listening sub-slice.
func (s *Scratch) nodeListens(i, per int) []Listening {
	return s.listenBuf[i*per : (i+1)*per : (i+1)*per]
}
