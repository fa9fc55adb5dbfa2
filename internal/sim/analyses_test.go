package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/coverage"
	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// This file pins the pair kernels to the exact analyses, phase by phase.
// Each pair trial draws its phases uniform over a finite integer grid, so
// running the kernel on every grid point yields the exact worst and mean
// latency of the trial's ensemble. The analyses integrate over a
// continuous range-entry instant; the single- and multi-channel kernels
// enter range on integer ticks, which loses the last tick of every
// latency segment: their worst case is the analysis's minus exactly one
// tick and their mean the analysis's minus exactly half a tick. The
// slot-grid trial's ensemble is the slot analysis's own, so it matches
// outright once slots are converted to ticks. Means compare to float64
// rounding, as both sides are floats.

// phaseStats folds the latencies of one phase grid.
type phaseStats struct {
	worst timebase.Ticks
	sum   int64
	n     int64
}

func (s *phaseStats) add(lat timebase.Ticks) {
	s.worst = max(s.worst, lat)
	s.sum += int64(lat)
	s.n++
}

func (s *phaseStats) mean() float64 { return float64(s.sum) / float64(s.n) }

// sameFloat reports whether a and b agree to within 4 units in the last
// place of the larger.
func sameFloat(a, b float64) bool {
	m := max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 4*(math.Nextafter(m, math.Inf(1))-m)
}

// checkPhases compares a phase grid's statistics against the analysis's
// worst case and mean, shifted by the kernel's discretization.
func checkPhases(t *testing.T, label string, got phaseStats, worst timebase.Ticks, mean float64) {
	t.Helper()
	if got.worst != worst || !sameFloat(got.mean(), mean) {
		t.Errorf("%s: kernel worst %d, mean %v over %d phase pairs; analysis gives worst %d, mean %v",
			label, got.worst, got.mean(), got.n, worst, mean)
	}
}

// bytePicker reads small integers off fuzz-style input, yielding 0 once
// the input runs out.
type bytePicker []byte

func (p *bytePicker) pick(n int) int {
	if len(*p) == 0 {
		return 0
	}
	v := int((*p)[0]) % n
	*p = (*p)[1:]
	return v
}

// deviceDesign decodes a small single-channel pair: 1–4 beacons of one
// 1–2-tick airtime and 1–3 windows, periods 8–47. ok is false when the
// picks do not make valid sequences.
func deviceDesign(p *bytePicker) (b schedule.BeaconSeq, c schedule.WindowSeq, ok bool) {
	b.Period = timebase.Ticks(8 + p.pick(40))
	omega := timebase.Ticks(1 + p.pick(2))
	var times []timebase.Ticks
	for n := 1 + p.pick(4); n > 0; n-- {
		times = append(times, timebase.Ticks(p.pick(int(b.Period-omega+1))))
	}
	slices.Sort(times)
	for _, at := range times {
		if len(b.Beacons) == 0 || at >= b.Beacons[len(b.Beacons)-1].End() {
			b.Beacons = append(b.Beacons, schedule.Beacon{Time: at, Len: omega})
		}
	}
	c.Period = timebase.Ticks(8 + p.pick(40))
	var ws []schedule.Window
	for n := 1 + p.pick(3); n > 0; n-- {
		start := timebase.Ticks(p.pick(int(c.Period)))
		ws = append(ws, schedule.Window{Start: start, Len: 1 + timebase.Ticks(p.pick(int(c.Period-start)))})
	}
	slices.SortFunc(ws, func(x, y schedule.Window) int { return int(x.Start - y.Start) })
	for _, w := range ws {
		if len(c.Windows) == 0 || w.Start > c.Windows[len(c.Windows)-1].End() {
			c.Windows = append(c.Windows, w)
		}
	}
	return b, c, b.Validate() == nil && c.Validate() == nil
}

// mcDesign decodes a small multi-channel config: 1–3 channels, 1–3-tick
// PDUs, an advertising interval up to 40 ticks past the event and scan
// intervals of 2–31 ticks.
func mcDesign(p *bytePicker) (multichannel.Config, bool) {
	mc := multichannel.Config{
		Channels: 1 + p.pick(3),
		Omega:    timebase.Ticks(1 + p.pick(3)),
		IFS:      timebase.Ticks(p.pick(4)),
		Ts:       timebase.Ticks(2 + p.pick(30)),
	}
	event := timebase.Ticks(mc.Channels)*(mc.Omega+mc.IFS) - mc.IFS
	mc.Ta = event + 1 + timebase.Ticks(p.pick(40))
	mc.Ds = 1 + timebase.Ticks(p.pick(int(mc.Ts)))
	return mc, mc.Validate() == nil
}

// slotDesign decodes a small slot schedule: period 2–21, active slots
// drawn from it.
func slotDesign(p *bytePicker) slots.Schedule {
	s := slots.Schedule{Period: 2 + p.pick(20)}
	for n := 1 + p.pick(4); n > 0; n-- {
		s.Active = append(s.Active, p.pick(s.Period))
	}
	slices.Sort(s.Active)
	s.Active = slices.Compact(s.Active)
	return s
}

// checkDevicePair runs the single-channel pair kernel (latency to the
// packet's end) on every integer phase pair of sender b and listener c,
// and requires coverage's worst − 1 and mean − ½ with the last packet
// counted. It reports whether the design was deterministic, and so
// checked.
func checkDevicePair(t *testing.T, scr *Scratch, b schedule.BeaconSeq, c schedule.WindowSeq) bool {
	t.Helper()
	ana, err := coverage.Analyze(b, c, coverage.Options{CountLastPacket: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Deterministic {
		return false
	}
	e, f := schedule.Device{B: b}, schedule.Device{C: c}
	cfg := Config{Horizon: ana.WorstLatency}
	var got phaseStats
	for pe := timebase.Ticks(0); pe < b.Period; pe++ {
		for pf := timebase.Ticks(0); pf < c.Period; pf++ {
			at, ok, err := scr.pairAt(e, f, pe, pf, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("beacons %v / windows %v: phases (%d, %d) missed within the worst case %d",
					b, c, pe, pf, ana.WorstLatency)
			}
			got.add(at)
		}
	}
	checkPhases(t, "single-channel pair", got, ana.WorstLatency-1, ana.MeanLatency-0.5)
	return true
}

// checkMultiChannelPair runs the multi-channel pair kernel (latency to the
// PDU's start) on every advertising-event and scan-cycle offset of mc, and
// requires multichannel's worst − 1 and mean − ½.
func checkMultiChannelPair(t *testing.T, scr *Scratch, mc multichannel.Config) bool {
	t.Helper()
	ana, err := multichannel.Analyze(mc)
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Deterministic {
		return false
	}
	var got phaseStats
	for u := timebase.Ticks(0); u < mc.Ta; u++ {
		for x := timebase.Ticks(0); x < timebase.Ticks(mc.Channels)*mc.Ts; x++ {
			oc, err := scr.mcPairAt(mc, u, x, ana.WorstLatency)
			if err != nil {
				t.Fatal(err)
			}
			if !oc.Discovered {
				t.Fatalf("%+v: offsets (%d, %d) missed within the worst case %d", mc, u, x, ana.WorstLatency)
			}
			got.add(oc.Latency)
		}
	}
	checkPhases(t, "multi-channel pair", got, ana.WorstLatency-1, ana.MeanLatency-0.5)
	return true
}

// checkSlotGridPair runs the slot-grid kernel on every slot-aligned phase
// pair of a against b, and requires slots' worst and mean in ticks.
func checkSlotGridPair(t *testing.T, scr *Scratch, a, b slots.Schedule, slotLen timebase.Ticks) bool {
	t.Helper()
	ana, err := slots.Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Deterministic {
		return false
	}
	pair, err := NewSlotGridPair(a, b, slotLen)
	if err != nil {
		t.Fatal(err)
	}
	horizon := timebase.Ticks(ana.WorstSlots) * slotLen
	var got phaseStats
	for u := 0; u < a.Period; u++ {
		for v := 0; v < b.Period; v++ {
			at, ok, err := pair.trialAt(timebase.Ticks(u), timebase.Ticks(v), horizon, scr)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v / %v: slots (%d, %d) missed within the worst case", a, b, u, v)
			}
			got.add(at)
		}
	}
	checkPhases(t, "slot-grid pair", got, horizon, ana.MeanSlots*float64(slotLen))
	return true
}

// TestPairKernelsMatchAnalyses runs the three pair kernels on every phase
// pair of small deterministic designs: single-channel pairs and
// multi-channel configs decoded from a seeded byte stream, and Disco
// schedules against themselves at several slot lengths.
func TestPairKernelsMatchAnalyses(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	scr := NewScratch()
	input := func() *bytePicker {
		p := make(bytePicker, 32)
		rng.Read(p)
		return &p
	}
	devices, configs := 0, 0
	for i := 0; i < 4000 && devices < 150; i++ {
		if b, c, ok := deviceDesign(input()); ok && checkDevicePair(t, scr, b, c) {
			devices++
		}
	}
	for i := 0; i < 4000 && configs < 60; i++ {
		if mc, ok := mcDesign(input()); ok && checkMultiChannelPair(t, scr, mc) {
			configs++
		}
	}
	if devices < 150 || configs < 60 {
		t.Fatalf("only %d single-channel designs and %d multi-channel configs were deterministic", devices, configs)
	}
	t.Logf("checked %d single-channel designs and %d multi-channel configs", devices, configs)
	for _, primes := range [][2]int{{3, 5}, {5, 7}, {3, 7}, {7, 11}} {
		d, err := slots.Disco(primes[0], primes[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, slotLen := range []timebase.Ticks{1, 3, 10} {
			if !checkSlotGridPair(t, scr, d, d, slotLen) {
				t.Fatalf("Disco%v is not deterministic", primes)
			}
		}
	}
}

// FuzzPairKernelsMatchAnalyses is the phase-by-phase check over byte-encoded
// small designs: the first byte picks the pair kind, the rest its design.
// Designs that are invalid or not deterministic are skipped.
func FuzzPairKernelsMatchAnalyses(f *testing.F) {
	f.Add([]byte{0, 17, 1, 2, 3, 20, 9, 2, 4, 6, 5})
	f.Add([]byte{1, 2, 1, 2, 10, 30, 5})
	f.Add([]byte{2, 5, 2, 0, 3, 5, 2, 1, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := bytePicker(data)
		scr := NewScratch()
		switch p.pick(3) {
		case 0:
			if b, c, ok := deviceDesign(&p); ok {
				checkDevicePair(t, scr, b, c)
			}
		case 1:
			if mc, ok := mcDesign(&p); ok {
				checkMultiChannelPair(t, scr, mc)
			}
		default:
			a, b := slotDesign(&p), slotDesign(&p)
			checkSlotGridPair(t, scr, a, b, 1+timebase.Ticks(p.pick(10)))
		}
	})
}
