package eval

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/textplot"
	"repro/internal/timebase"
)

// AblationResult collects four design-choice ablations — the interval
// sweep vs brute-force offsets, equal vs perturbed beacon gaps, the slot
// length and the redundancy degree Q — as a printable report (the root
// bench_test.go measures the same quantities continuously; this runner
// makes them a one-command artifact).
type AblationResult struct {
	// SweepMicros and BruteMicros time one worst-case analysis of the
	// reference pair with the interval sweep vs. brute-force offsets.
	SweepMicros, BruteMicros float64
	// SweepWorst and BruteWorst are their (identical) answers.
	SweepWorst, BruteWorst timebase.Ticks

	// PerturbationInflation is measured L over the coverage bound when the
	// equal-M-gap-sums condition of Theorem 5.1 is violated.
	PerturbationInflation float64

	// SlotLatencies maps slot length to measured diffcode worst case
	// (Equation 17: latency ∝ I).
	SlotLens      []timebase.Ticks
	SlotLatencies []timebase.Ticks

	// QLatencies is the measured Q-th-coverage latency for Q = 1..4
	// (Equation 33: linear in Q).
	QLatencies []timebase.Ticks
}

// RunAblations executes all four ablations.
func RunAblations(p core.Params) (AblationResult, error) {
	var res AblationResult

	// 1. Sweep vs brute force.
	u, err := optimal.NewUnidirectional(p.Omega, 500, 20, 1)
	if err != nil {
		return res, err
	}
	start := time.Now()
	ana, err := coverage.Analyze(u.Sender, u.Listener, coverage.Options{})
	if err != nil {
		return res, err
	}
	res.SweepMicros = float64(time.Since(start).Microseconds())
	res.SweepWorst = ana.WorstLatency
	start = time.Now()
	brute, ok := coverage.BruteForceWorstLatency(u.Sender, u.Listener, 1, coverage.Options{})
	if !ok {
		return res, fmt.Errorf("eval: brute force disagrees on determinism")
	}
	res.BruteMicros = float64(time.Since(start).Microseconds())
	res.BruteWorst = brute

	// 2. Theorem 5.1 perturbation.
	perturbed, err := optimal.PerturbedBeacons(p.Omega, 500, 8)
	if err != nil {
		return res, err
	}
	listener, err := optimal.NewUnidirectional(p.Omega, 500, 8, 1)
	if err != nil {
		return res, err
	}
	pres, err := coverage.Analyze(perturbed, listener.Listener, coverage.Options{})
	if err != nil {
		return res, err
	}
	bound := p.CoverageBound(listener.Listener.Period, 500, perturbed.Beta())
	res.PerturbationInflation = float64(pres.WorstLatency) / bound

	// 3. Slot length sweep.
	for _, slot := range []timebase.Ticks{200, 400, 800, 1600} {
		d, err := protocols.NewDiffcode(3, slot, p.Omega)
		if err != nil {
			return res, err
		}
		dev, err := d.DeviceFullDuplex()
		if err != nil {
			return res, err
		}
		a, err := coverage.Analyze(dev.B, dev.C, coverage.Options{})
		if err != nil {
			return res, err
		}
		res.SlotLens = append(res.SlotLens, slot)
		res.SlotLatencies = append(res.SlotLatencies, a.WorstLatency)
	}

	// 4. Redundancy sweep.
	r, err := optimal.NewRedundant(p.Omega, 500, 8, 1)
	if err != nil {
		return res, err
	}
	for q := 1; q <= 4; q++ {
		lat, ok, err := coverage.QWorstLatency(r.Sender, r.Listener, q, coverage.Options{})
		if err != nil || !ok {
			return res, fmt.Errorf("eval: Q=%d coverage failed", q)
		}
		res.QLatencies = append(res.QLatencies, lat)
	}
	return res, nil
}

// Render formats the ablation report.
func (res AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations — design choices quantified\n\n")

	b.WriteString("1. Coverage engine: interval sweep vs brute-force offset scan\n")
	t1 := textplot.NewTable("engine", "time", "worst case")
	t1.AddF("interval sweep", fmt.Sprintf("%.0f µs", res.SweepMicros), res.SweepWorst.String())
	t1.AddF("brute force", fmt.Sprintf("%.0f µs", res.BruteMicros), res.BruteWorst.String())
	b.WriteString(t1.String())
	if res.SweepMicros > 0 {
		b.WriteString(fmt.Sprintf("→ identical answers, ×%.0f speedup\n\n", res.BruteMicros/res.SweepMicros))
	}

	b.WriteString("2. Theorem 5.1: violating equal M-gap sums at identical duty cycles\n")
	b.WriteString(fmt.Sprintf("→ worst case inflates to ×%.3f of the bound (theory: → 4/3)\n\n",
		res.PerturbationInflation))

	b.WriteString("3. Equation 17: slotted latency scales linearly with slot length I\n")
	t3 := textplot.NewTable("slot length", "measured worst case")
	for i := range res.SlotLens {
		t3.AddF(res.SlotLens[i].String(), res.SlotLatencies[i].String())
	}
	b.WriteString(t3.String())
	b.WriteString("\n4. Equation 33: time to Q-fold coverage is linear in Q\n")
	t4 := textplot.NewTable("Q", "L(Q)", "L(Q)/L(1)")
	for i, lat := range res.QLatencies {
		t4.AddF(i+1, lat.String(), float64(lat)/float64(res.QLatencies[0]))
	}
	b.WriteString(t4.String())
	return b.String()
}
