package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// This file keeps the single-channel pair trial as it ran before it joined
// the escalation runner: the same draws, then one kernel run over the whole
// horizon. It is the oracle the escalated trial must match outcome for
// outcome, across every channel semantics and schedule shape the trial
// accepts.

// pairTrialOneShot is the reference PairTrialScratch: phases and a jitter
// seed drawn from rng as the trial draws them, then one kernel run over
// cfg.Horizon.
func pairTrialOneShot(e, f schedule.Device, cfg Config, rng *rand.Rand, scr *Scratch) (timebase.Ticks, bool, error) {
	pe, pf := randPhase(rng, phaseSpan(e)), randPhase(rng, phaseSpan(f))
	nodes := scr.worldNodes(2, 1)
	nodes[0] = scr.place(0, e.B, e.C, pe)
	nodes[1] = scr.place(1, f.B, f.C, pf)
	wr, err := RunWorldScratch(nodes, cfg, scr.jitterRand(rng.Int63()), scr)
	if err != nil {
		return 0, false, err
	}
	rec, ok := wr.FirstReception(1, 0)
	return rec.End, ok, nil
}

// beaconDesign decodes up to n beacons of mixed 1–6-tick airtimes, a few
// ticks apart, in a period of 4–51 ticks; none when n is 0 or the first
// does not fit.
func beaconDesign(p *bytePicker, n int) schedule.BeaconSeq {
	b := schedule.BeaconSeq{Period: timebase.Ticks(4 + p.pick(48))}
	at := timebase.Ticks(p.pick(8))
	for ; n > 0; n-- {
		l := timebase.Ticks(1 + p.pick(6))
		if at+l > b.Period {
			break
		}
		b.Beacons = append(b.Beacons, schedule.Beacon{Time: at, Len: l})
		at += l + timebase.Ticks(p.pick(12))
	}
	if b.Empty() {
		return schedule.BeaconSeq{}
	}
	return b
}

// windowDesign decodes up to n windows of 1–16 ticks in a period of 4–51
// ticks; none when n is 0 or the first does not fit.
func windowDesign(p *bytePicker, n int) schedule.WindowSeq {
	c := schedule.WindowSeq{Period: timebase.Ticks(4 + p.pick(48))}
	at := timebase.Ticks(p.pick(8))
	for ; n > 0; n-- {
		l := timebase.Ticks(1 + p.pick(16))
		if at+l > c.Period {
			break
		}
		c.Windows = append(c.Windows, schedule.Window{Start: at, Len: l})
		at += l + 1 + timebase.Ticks(p.pick(12))
	}
	if c.Empty() {
		return schedule.WindowSeq{}
	}
	return c
}

// pairDesign decodes one small pair trial: a sender of 0–4 beacons, a
// receiver of 0–3 windows that sends 1–3 beacons of its own in one case of
// three, the channel flags (collisions, half-duplex, truncated windows,
// 1–30 ticks of jitter), a horizon from one tick to six of the longer
// period, and the seed of the trial's rng.
func pairDesign(p *bytePicker) (e, f schedule.Device, cfg Config, seed int64) {
	e.B = beaconDesign(p, p.pick(5))
	f.C = windowDesign(p, p.pick(4))
	if p.pick(3) == 0 {
		f.B = beaconDesign(p, 1+p.pick(3))
	}
	flags := p.pick(16)
	cfg = Config{Collisions: flags&1 != 0, HalfDuplex: flags&2 != 0, TruncatedWindows: flags&4 != 0}
	if flags&8 != 0 {
		cfg.Jitter = timebase.Ticks(1 + p.pick(30))
	}
	span := max(e.B.Period, f.C.Period, 1)
	cfg.Horizon = 1 + timebase.Ticks(p.pick(6))*span + timebase.Ticks(p.pick(int(span)))
	for i := 0; i < 8; i++ {
		seed = seed<<8 | int64(p.pick(256))
	}
	return e, f, cfg, seed
}

// checkPairTrial runs PairTrialScratch on scr and the one-shot reference on
// ref, each on a trial rng seeded with seed, requires the same latency,
// discovery and error, and returns the outcome.
func checkPairTrial(t *testing.T, scr, ref *Scratch, e, f schedule.Device, cfg Config, seed int64) (timebase.Ticks, bool) {
	t.Helper()
	at, ok, err := PairTrialScratch(e, f, cfg, scr.Rand(seed), scr)
	wantAt, wantOK, wantErr := pairTrialOneShot(e, f, cfg, ref.Rand(seed), ref)
	if at != wantAt || ok != wantOK || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("sender %v, receiver %v, %+v, seed %d: escalated (%d, %v, %v), one-shot (%d, %v, %v)",
			e, f, cfg, seed, at, ok, err, wantAt, wantOK, wantErr)
	}
	return at, ok
}

// TestPairTrialMatchesReference runs the escalated pair trial and the
// one-shot reference on 200k small pairs decoded from a seeded byte stream,
// and requires equal outcomes. The decoder mixes beacon lengths and covers
// collisions, half-duplex, truncated windows, jitter, transmitting
// receivers, empty schedules and horizons below one cycle; the test also
// requires many receptions to end within one beacon of a cut, where the
// runner's acceptance margin decides.
func TestPairTrialMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	scr, ref := NewScratch(), NewScratch()
	const cases = 200000
	nearCut, shortHorizon := 0, 0
	buf := make(bytePicker, 64)
	for i := 0; i < cases; i++ {
		rng.Read(buf)
		p := buf
		e, f, cfg, seed := pairDesign(&p)
		at, ok := checkPairTrial(t, scr, ref, e, f, cfg, seed)
		cycle := max(e.B.Period, f.C.Period)
		if cfg.Horizon < cycle {
			shortHorizon++
		}
		margin := max(longestBeacon(e.B), longestBeacon(f.B))
		for cut := cycle; ok && cut > 0 && cut < cfg.Horizon; cut *= 2 {
			if at > cut-margin && at <= cut+margin {
				nearCut++
				break
			}
		}
	}
	t.Logf("%d pairs: %d receptions within one beacon of a cut, %d horizons below one cycle", cases, nearCut, shortHorizon)
	if nearCut < cases/100 || shortHorizon < cases/100 {
		t.Fatalf("only %d receptions near a cut and %d horizons below one cycle in %d pairs", nearCut, shortHorizon, cases)
	}
}

// FuzzPairTrialMatchesReference is the reference check over fuzzer-chosen
// byte-encoded pairs (pairDesign).
func FuzzPairTrialMatchesReference(f *testing.F) {
	// A jittered sender of mixed-length beacons against two windows.
	f.Add([]byte{4, 40, 2, 0, 3, 5, 1, 0, 4, 1, 2, 2, 28, 1, 4, 3, 7, 0, 1, 8, 25, 4, 30, 51, 34, 17, 200, 9, 77, 3, 1})
	// A receiver that sends, with jitter and collisions on.
	f.Add([]byte{2, 20, 1, 2, 1, 3, 0, 1, 12, 0, 7, 0, 0, 2, 26, 3, 1, 2, 5, 0, 0, 0, 9, 11, 5, 10, 0, 0, 0, 0, 0, 0, 1, 44})
	// A receiver with no windows.
	f.Add([]byte{3, 20, 0, 1, 4, 0, 2, 2, 0, 0, 10, 0, 1, 3, 5, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := bytePicker(data)
		e, fd, cfg, seed := pairDesign(&p)
		checkPairTrial(t, NewScratch(), NewScratch(), e, fd, cfg, seed)
	})
}
