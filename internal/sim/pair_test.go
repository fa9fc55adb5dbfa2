package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file pins the latency tables to the kernel they replace: a
// tabulated Pair's trial must return what the kernel entry point returns
// for the same trial rng — latency, discovery, channel and error — and
// leave that rng in the same state, on designs the exact analyses cover
// and on designs they do not (non-deterministic pairs, mixed beacon
// lengths, devices that both send and listen, horizons below the worst
// case).

// tableDesign decodes a small quiet single-channel pair: a sender of 1–4
// beacons of mixed 1–6-tick airtimes against 1–3 windows, where in one
// case of three the sender also listens and in one of three the receiver
// also sends. ok is false when either schedule came out empty.
func tableDesign(p *bytePicker) (e, f schedule.Device, ok bool) {
	e.B = beaconDesign(p, 1+p.pick(4))
	f.C = windowDesign(p, 1+p.pick(3))
	if p.pick(3) == 0 {
		e.C = windowDesign(p, 1+p.pick(3))
	}
	if p.pick(3) == 0 {
		f.B = beaconDesign(p, 1+p.pick(3))
	}
	return e, f, !e.B.Empty() && !f.C.Empty()
}

// pairTableCases counts the input classes a table oracle run covered.
type pairTableCases struct {
	trials, found, pastHorizon, uncovered int
}

// checkPairTable runs one trial of the tabulated pair on scr and the
// kernel entry point PairTrialScratch on ref, each on a trial rng seeded
// with seed, and requires the same outcome and the same rng state after.
func checkPairTable(t *testing.T, pair *Pair, e, f schedule.Device, cfg Config, seed int64, scr, ref *Scratch, cases *pairTableCases) {
	t.Helper()
	rng, want := scr.Rand(seed), ref.Rand(seed)
	at, ch, ok, err := pair.TrialScratch(cfg, rng, scr)
	wantAt, wantOK, wantErr := PairTrialScratch(e, f, cfg, want, ref)
	if at != wantAt || ch != 0 || ok != wantOK || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("sender %v, receiver %v, %+v, seed %d: table (%d, %d, %v, %v), kernel (%d, %v, %v)",
			e, f, cfg, seed, at, ch, ok, err, wantAt, wantOK, wantErr)
	}
	if a, b := rng.Int63(), want.Int63(); a != b {
		t.Fatalf("sender %v, receiver %v, seed %d: the table trial left its rng at %d, the kernel at %d", e, f, seed, a, b)
	}
	cases.count(ok)
}

func (c *pairTableCases) count(discovered bool) {
	c.trials++
	if discovered {
		c.found++
	}
}

// TestPairTableMatchesKernel runs 200k trials of tabulated single-channel
// pairs against PairTrialScratch: 2,000 designs decoded from a seeded byte
// stream, 100 trials each on horizons from one tick to past one
// hyperperiod, so many trials end before their reception.
func TestPairTableMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	scr, ref := NewScratch(), NewScratch()
	var cases pairTableCases
	designs, mixed := 0, 0
	buf := make(bytePicker, 48)
	for designs < 2000 {
		rng.Read(buf)
		p := buf
		e, f, ok := tableDesign(&p)
		if !ok {
			continue
		}
		designs++
		if longestBeacon(e.B) != minBeacon(e.B) {
			mixed++
		}
		pair := NewPair(e, f)
		if err := pair.Tabulate(); err != nil {
			t.Fatalf("sender %v, receiver %v: %v", e, f, err)
		}
		span := timebase.LCM(e.B.Period, f.C.Period) + e.B.Period
		for k := 0; k < 100; k++ {
			cfg := Config{Horizon: 1 + timebase.Ticks(rng.Int63n(int64(span)))}
			seed := rng.Int63()
			checkPairTable(t, pair, e, f, cfg, seed, scr, ref, &cases)
			classify(pair, [2]timebase.Ticks{phaseSpan(e), phaseSpan(f)}, seed,
				func(lat timebase.Ticks) bool { return lat > cfg.Horizon }, &cases)
		}
	}
	t.Logf("%d designs (%d of mixed airtimes): %+v", designs, mixed, cases)
	if mixed < designs/4 || cases.found < cases.trials/4 || cases.pastHorizon < cases.trials/20 || cases.uncovered < cases.trials/100 {
		t.Fatalf("the designs missed an input class: %d mixed of %d designs, %+v", mixed, designs, cases)
	}
}

// classify replays a trial's phase draws over spans and counts why the
// table misses there: a reception past the horizon (late), or none ever.
func classify(pair *Pair, spans [2]timebase.Ticks, seed int64, late func(timebase.Ticks) bool, cases *pairTableCases) {
	rng := rand.New(NewFastSource(seed))
	ps, pr := randPhase(rng, spans[0]), randPhase(rng, spans[1])
	if pair.multi {
		ps, pr = -ps, -pr
	}
	switch lat, _, ok := pair.table.at(ps, pr); {
	case !ok:
		cases.uncovered++
	case late(lat):
		cases.pastHorizon++
	}
}

// minBeacon returns the shortest airtime among b's beacons.
func minBeacon(b schedule.BeaconSeq) timebase.Ticks {
	m := b.Beacons[0].Len
	for _, bc := range b.Beacons {
		m = min(m, bc.Len)
	}
	return m
}

// checkMultiChannelTable runs one trial of the tabulated multi-channel
// pair on scr and MultiChannelPairTrialScratch on ref, each on a trial rng
// seeded with seed, and requires the same outcome and rng state after.
func checkMultiChannelTable(t *testing.T, pair *Pair, mc multichannel.Config, horizon timebase.Ticks, seed int64, scr, ref *Scratch, cases *pairTableCases) {
	t.Helper()
	rng, want := scr.Rand(seed), ref.Rand(seed)
	at, ch, ok, err := pair.TrialScratch(Config{Horizon: horizon}, rng, scr)
	oc, wantErr := MultiChannelPairTrialScratch(mc, horizon, want, ref)
	if at != oc.Latency || ch != oc.Channel || ok != oc.Discovered || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v, horizon %d, seed %d: table (%d, %d, %v, %v), kernel (%+v, %v)", mc, horizon, seed, at, ch, ok, err, oc, wantErr)
	}
	if a, b := rng.Int63(), want.Int63(); a != b {
		t.Fatalf("%+v, seed %d: the table trial left its rng at %d, the kernel at %d", mc, seed, a, b)
	}
	cases.count(ok)
}

// TestMultiChannelPairTableMatchesKernel runs 200k trials of tabulated
// multi-channel pairs of 1–4 channels against MultiChannelPairTrialScratch:
// 2,000 configurations, 100 trials each on horizons from one tick to four
// of the longer of the advertising interval and the scan cycle.
func TestMultiChannelPairTableMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	scr, ref := NewScratch(), NewScratch()
	var cases pairTableCases
	configs, nondet := 0, 0
	var channels [5]int
	buf := make(bytePicker, 16)
	for configs < 2000 {
		rng.Read(buf)
		p := buf
		mc, ok := mcDesign(&p)
		if !ok {
			continue
		}
		configs++
		channels[mc.Channels]++
		pair, err := NewMultiChannelPair(mc)
		if err == nil {
			err = pair.Tabulate()
		}
		if err != nil {
			t.Fatalf("%+v: %v", mc, err)
		}
		if ana, err := multichannel.Analyze(mc); err != nil {
			t.Fatal(err)
		} else if !ana.Deterministic {
			nondet++
		}
		cycle := timebase.Ticks(mc.Channels) * mc.Ts
		span := 4 * max(mc.Ta, cycle)
		for k := 0; k < 100; k++ {
			horizon := 1 + timebase.Ticks(rng.Int63n(int64(span)))
			seed := rng.Int63()
			checkMultiChannelTable(t, pair, mc, horizon, seed, scr, ref, &cases)
			classify(pair, [2]timebase.Ticks{mc.Ta, cycle}, seed,
				func(lat timebase.Ticks) bool { return lat >= horizon }, &cases)
		}
	}
	t.Logf("%d configs (%d not deterministic, by channels %v): %+v", configs, nondet, channels[1:], cases)
	for c := 1; c <= 4; c++ {
		if channels[c] < configs/10 {
			t.Fatalf("only %d of %d configs have %d channels", channels[c], configs, c)
		}
	}
	if nondet < configs/20 || cases.found < cases.trials/4 || cases.pastHorizon < cases.trials/20 || cases.uncovered < cases.trials/100 {
		t.Fatalf("the configs missed an input class: %d of %d not deterministic, %+v", nondet, configs, cases)
	}
}

// FuzzPairTableMatchesKernel is the table oracle over fuzzer-chosen bytes:
// the first byte picks the kind, the next ones a single-channel design
// (tableDesign) or a multi-channel config (mcDesign), then a horizon and
// the seeds of eight trials.
func FuzzPairTableMatchesKernel(f *testing.F) {
	// A mixed-airtime sender against two windows.
	f.Add([]byte{0, 40, 2, 3, 5, 1, 0, 4, 2, 2, 28, 1, 4, 3, 7, 0, 1, 8, 2, 1, 200, 9, 77, 3, 1})
	// A sender that listens against a receiver that sends.
	f.Add([]byte{0, 20, 1, 2, 1, 3, 0, 1, 12, 0, 7, 0, 0, 2, 26, 3, 1, 0, 5, 0, 0, 30, 4, 2, 1, 9, 11})
	// Three channels, then four.
	f.Add([]byte{1, 2, 1, 2, 10, 30, 5, 90, 1, 2, 3})
	f.Add([]byte{1, 3, 0, 3, 7, 12, 2, 250, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := bytePicker(data)
		scr, ref := NewScratch(), NewScratch()
		var cases pairTableCases
		if p.pick(2) == 0 {
			e, fd, ok := tableDesign(&p)
			if !ok {
				return
			}
			pair := NewPair(e, fd)
			if err := pair.Tabulate(); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Horizon: 1 + timebase.Ticks(p.pick(256)*p.pick(256))}
			for k := 0; k < 8; k++ {
				checkPairTable(t, pair, e, fd, cfg, int64(p.pick(256))<<8|int64(k), scr, ref, &cases)
			}
			return
		}
		mc, ok := mcDesign(&p)
		if !ok {
			return
		}
		pair, err := NewMultiChannelPair(mc)
		if err == nil {
			err = pair.Tabulate()
		}
		if err != nil {
			t.Fatal(err)
		}
		horizon := 1 + timebase.Ticks(p.pick(256)*p.pick(256))
		for k := 0; k < 8; k++ {
			checkMultiChannelTable(t, pair, mc, horizon, int64(p.pick(256))<<8|int64(k), scr, ref, &cases)
		}
	})
}
