package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/multichannel"
	"repro/internal/optimal"
	"repro/internal/schedule"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// This fixture pins the arena hygiene contract: a Scratch carried across
// trials — and across *kinds* of trials — must never leak state into a
// result. Each subtest runs a trial sequence twice with identical RNG
// streams: once with a fresh arena per trial (the reference), once on a
// single shared arena that is deliberately dirtied between trials by
// running a structurally different workload on it. Any buffer the kernel
// forgets to reset (a stale first-reception cell, an un-truncated run
// list, a leftover channel-load counter) shows up as a mismatch.

// dirtyScratch pollutes every arena surface a later trial could read:
// a many-node collision-channel group trial (grows and fills txs, runs,
// sort keys, the first-reception table, per-channel loads) followed by a
// multi-channel pair trial (fills the memoized template cache and
// channel-indexed buffers).
func dirtyScratch(t *testing.T, scr *Scratch) {
	t.Helper()
	u, err := optimal.NewUnidirectional(2, 25, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev := schedule.Device{B: u.Sender, C: u.Listener}
	rng := rand.New(rand.NewSource(99))
	cfg := Config{Horizon: 50000, Collisions: true, HalfDuplex: true}
	if _, err := GroupTrialScratch(dev, 6, cfg, rng, scr); err != nil {
		t.Fatal(err)
	}
	mc := multichannel.BLE(20000, 128, 30000, 30000)
	if _, err := MultiChannelPairTrialScratch(mc, 200000, rng, scr); err != nil {
		t.Fatal(err)
	}
}

// runSequence executes trial t = 0..n-1 with a per-trial reseeded RNG and
// returns the collected results. When shared is non-nil every trial runs
// on it, dirtied first; otherwise each trial gets a fresh arena.
func runSequence(t *testing.T, n int, shared *Scratch, trial func(*rand.Rand, *Scratch) (any, error)) []any {
	t.Helper()
	out := make([]any, n)
	for i := 0; i < n; i++ {
		scr := shared
		if scr == nil {
			scr = NewScratch()
		} else {
			dirtyScratch(t, scr)
		}
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		res, err := trial(rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func assertNoLeak(t *testing.T, name string, trial func(*rand.Rand, *Scratch) (any, error)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		const trials = 5
		fresh := runSequence(t, trials, nil, trial)
		reused := runSequence(t, trials, NewScratch(), trial)
		for i := range fresh {
			if !reflect.DeepEqual(fresh[i], reused[i]) {
				t.Errorf("trial %d: dirtied shared arena diverged from fresh arena:\nfresh:  %+v\nreused: %+v",
					i, fresh[i], reused[i])
			}
		}
	})
}

type pairOutcome struct {
	At timebase.Ticks
	OK bool
}

func TestScratchReuseLeaksNothingAcrossKinds(t *testing.T) {
	u, err := optimal.NewUnidirectional(2, 25, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sender := schedule.Device{B: u.Sender}
	listener := schedule.Device{C: u.Listener}
	sym := schedule.Device{B: u.Sender, C: u.Listener}
	mc := multichannel.BLE(20000, 128, 30000, 30000)
	busy := Config{Horizon: 100000, Collisions: true, HalfDuplex: true, Jitter: 7}
	quiet := Config{Horizon: 100000}

	assertNoLeak(t, "pair", func(rng *rand.Rand, scr *Scratch) (any, error) {
		at, ok, err := PairTrialScratch(sender, listener, quiet, rng, scr)
		return pairOutcome{at, ok}, err
	})
	assertNoLeak(t, "group", func(rng *rand.Rand, scr *Scratch) (any, error) {
		return GroupTrialScratch(sym, 5, busy, rng, scr)
	})
	assertNoLeak(t, "churn", func(rng *rand.Rand, scr *Scratch) (any, error) {
		contacts, _, err := ChurnTrialScratch(sym, 5, 40000, busy, rng, scr)
		// The WorldResult aliases the arena by contract; the contact
		// records are the retained output.
		return append([]Contact(nil), contacts...), err
	})
	assertNoLeak(t, "multichannel-pair", func(rng *rand.Rand, scr *Scratch) (any, error) {
		return MultiChannelPairTrialScratch(mc, 400000, rng, scr)
	})
	assertNoLeak(t, "multichannel-group", func(rng *rand.Rand, scr *Scratch) (any, error) {
		return MultiChannelGroupTrialScratch(mc, 4, Config{Horizon: 400000, Collisions: true, HalfDuplex: true}, rng, scr)
	})
	assertNoLeak(t, "multichannel-churn", func(rng *rand.Rand, scr *Scratch) (any, error) {
		return MultiChannelChurnTrialScratch(mc, 4, 150000, Config{Horizon: 400000, Collisions: true, HalfDuplex: true}, rng, scr)
	})

	d1, err := slots.Disco(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewSlotGridPair(d1, d1, 100)
	if err != nil {
		t.Fatal(err)
	}
	assertNoLeak(t, "slotgrid", func(rng *rand.Rand, scr *Scratch) (any, error) {
		at, ok, err := grid.TrialScratch(500000, rng, scr)
		return pairOutcome{at, ok}, err
	})
}
