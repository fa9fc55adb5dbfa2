// Package eval regenerates every quantitative artifact of the paper's
// evaluation: Table 1, Figure 6, Figure 7, the Section 6.1 slotted-limit
// comparisons (Equations 18/19), the Appendix B worked example, and an
// achievability table certifying that the constructions of package optimal
// meet the bounds of package core. Each experiment returns structured rows
// (for tests and benchmarks) and renders itself as text (for cmd/ndeval).
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/timebase"
)

// StdParams is the paper's evaluation setup: ω = 36 µs, α = 1.
var StdParams = core.Params{Omega: 36, Alpha: 1}

// ---------------------------------------------------------------- Table 1

// Table1Row is one evaluated cell family of Table 1: all four protocol
// formulas plus the fundamental bound at one (η, β) operating point.
type Table1Row struct {
	Eta, Beta   float64
	Fundamental float64 // Theorem 5.6 (= Eq 21 in this regime), ticks
	Diffcodes   float64
	Searchlight float64
	Disco       float64
	UConnect    float64
}

// Table1Validation is one measured protocol instance: the coverage engine's
// exact worst-case latency against the closed-form expectation.
type Table1Validation struct {
	Name             string
	Eta, Beta        float64 // achieved by the concrete schedule
	SlotBound        timebase.Ticks
	Measured         timebase.Ticks
	OptimalityVsEq21 float64 // measured / Eq21(η, β): ≥ 1, smaller is better

	// OptimalityVsEq21Single re-normalizes to the Table 1 derivation's
	// single-packet-per-slot model (Eq 20: β = kω/IT): our schedules send
	// two packets per active slot to guarantee one-way discovery under
	// arbitrary phase offsets, which doubles β relative to the model the
	// formulas assume. Diffcodes land near 1.0 in this column.
	OptimalityVsEq21Single float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Params      core.Params
	Rows        []Table1Row
	Validations []Table1Validation
}

// RunTable1 evaluates the Table 1 formulas over an operating grid and
// re-measures concrete instances of each protocol with the coverage engine.
func RunTable1(p core.Params) (Table1Result, error) {
	res := Table1Result{Params: p}
	for _, eta := range []float64{0.01, 0.02, 0.05, 0.10} {
		beta := p.OptimalBeta(eta) // β = η/2α, where Eq 21 = Thm 5.6
		res.Rows = append(res.Rows, Table1Row{
			Eta: eta, Beta: beta,
			Fundamental: p.Constrained(eta, beta),
			Diffcodes:   p.Table1Latency(core.Diffcodes, eta, beta),
			Searchlight: p.Table1Latency(core.SearchlightS, eta, beta),
			Disco:       p.Table1Latency(core.Disco, eta, beta),
			UConnect:    p.Table1Latency(core.UConnect, eta, beta),
		})
	}

	slotLen := timebase.Ticks(1000)
	builds := []struct {
		name  string
		build func() (*protocols.Slotted, error)
	}{
		{"Diffcode(q=4)", func() (*protocols.Slotted, error) { return protocols.NewDiffcode(4, slotLen, p.Omega) }},
		{"Diffcode(q=5)", func() (*protocols.Slotted, error) { return protocols.NewDiffcode(5, slotLen, p.Omega) }},
		{"Searchlight(8)", func() (*protocols.Slotted, error) { return protocols.NewSearchlight(8, false, slotLen, p.Omega) }},
		{"Disco(5,7)", func() (*protocols.Slotted, error) { return protocols.NewDisco(5, 7, slotLen, p.Omega) }},
		{"U-Connect(5)", func() (*protocols.Slotted, error) { return protocols.NewUConnect(5, slotLen, p.Omega) }},
	}
	for _, b := range builds {
		s, err := b.build()
		if err != nil {
			return res, fmt.Errorf("eval: building %s: %w", b.name, err)
		}
		dev, err := s.DeviceFullDuplex()
		if err != nil {
			return res, err
		}
		ana, err := coverage.Analyze(dev.B, dev.C, coverage.Options{})
		if err != nil {
			return res, err
		}
		if !ana.Deterministic {
			return res, fmt.Errorf("eval: %s not deterministic", b.name)
		}
		eta := s.Eta(p.Alpha)
		beta := s.Beta()
		betaSingle := beta / 2 // Eq 20's one-packet-per-slot accounting
		etaSingle := eta - p.Alpha*betaSingle
		res.Validations = append(res.Validations, Table1Validation{
			Name: b.name, Eta: eta, Beta: beta,
			SlotBound:        s.WorstCaseTime(),
			Measured:         ana.WorstLatency,
			OptimalityVsEq21: core.OptimalityRatio(float64(ana.WorstLatency), p.SlottedChannelBound(eta, beta)),
			OptimalityVsEq21Single: core.OptimalityRatio(float64(ana.WorstLatency),
				p.SlottedChannelBound(etaSingle, betaSingle)),
		})
	}
	return res, nil
}

// Render formats the Table 1 reproduction.
func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — worst-case latencies of slotted protocols, dm(β, η) in ms\n")
	b.WriteString(fmt.Sprintf("(ω = %v, α = %.3g, β = η/2α)\n\n", r.Params.Omega, r.Params.Alpha))
	t := textplot.NewTable("η", "β", "bound(Thm 5.6)", "Diffcodes", "Searchlight-S", "Disco", "U-Connect")
	for _, row := range r.Rows {
		t.AddF(row.Eta, row.Beta, ms(row.Fundamental), ms(row.Diffcodes),
			ms(row.Searchlight), ms(row.Disco), ms(row.UConnect))
	}
	b.WriteString(t.String())
	b.WriteString("\nMeasured validation (coverage engine, full-duplex slots):\n")
	v := textplot.NewTable("protocol", "η", "β", "slot bound", "measured",
		"measured/Eq21", "measured/Eq21 (1-pkt model)")
	for _, val := range r.Validations {
		v.AddF(val.Name, val.Eta, val.Beta, val.SlotBound.String(),
			val.Measured.String(), val.OptimalityVsEq21, val.OptimalityVsEq21Single)
	}
	b.WriteString(v.String())
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Figure6Point is one evaluated point of Figure 6.
type Figure6Point struct {
	Sum           float64 // ηE + ηF
	Ratio         float64 // r = ηE / ηF
	EtaE          float64
	EtaF          float64
	L             float64 // Theorem 5.7 bound, ticks
	LTimesSum     float64
	LTimesProduct float64 // invariant: = 4αω for every point
}

// Figure6Result reproduces Figure 6: the product of the worst-case bound
// and the joint duty-cycle over the duty-cycle sum, for several asymmetry
// ratios, with the symmetric bound as reference.
type Figure6Result struct {
	Params core.Params
	Ratios []float64
	Sums   []float64
	Points []Figure6Point
}

// RunFigure6 evaluates the asymmetric bound across sums and ratios.
func RunFigure6(p core.Params) Figure6Result {
	res := Figure6Result{
		Params: p,
		Ratios: []float64{1, 2, 4, 10},
	}
	for s := 0.002; s <= 0.2+1e-12; s *= math.Sqrt2 {
		res.Sums = append(res.Sums, s)
	}
	for _, r := range res.Ratios {
		for _, s := range res.Sums {
			etaF := s / (1 + r)
			etaE := s - etaF
			l := p.Asymmetric(etaE, etaF)
			res.Points = append(res.Points, Figure6Point{
				Sum: s, Ratio: r, EtaE: etaE, EtaF: etaF,
				L: l, LTimesSum: l * s, LTimesProduct: l * etaE * etaF,
			})
		}
	}
	return res
}

// PenaltyFactor returns (1+r)²/(4r): the exact factor by which the
// L·(ηE+ηF) curve of asymmetry ratio r sits above the symmetric curve,
// independent of the sum. The paper's Figure 6 reads this as "no cost for
// asymmetry"; the factor is 1.0 at r=1, 1.125 at r=2 and 3.025 at r=10.
func (res Figure6Result) PenaltyFactor(r float64) float64 {
	return (1 + r) * (1 + r) / (4 * r)
}

// Render formats the Figure 6 reproduction.
func (res Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6 — L · (ηE + ηF) over the joint duty-cycle (Theorem 5.7)\n\n")
	plot := textplot.Plot{
		Title: "L·(ηE+ηF) [s] vs ηE+ηF (log-log)", LogX: true, LogY: true,
		XLabel: "ηE+ηF", YLabel: "L·(ηE+ηF) in s",
	}
	markers := []rune{'s', '2', '4', 'x'}
	for i, r := range res.Ratios {
		var xs, ys []float64
		for _, pt := range res.Points {
			if pt.Ratio == r {
				xs = append(xs, pt.Sum)
				ys = append(ys, pt.LTimesSum/1e6)
			}
		}
		plot.AddSeries(fmt.Sprintf("ηE/ηF = %g (penalty ×%.3f)", r, res.PenaltyFactor(r)), markers[i%len(markers)], xs, ys)
	}
	b.WriteString(plot.String())
	b.WriteString("\nInvariant check: L·ηE·ηF = 4αω for every point ")
	worst := 0.0
	for _, pt := range res.Points {
		if dev := math.Abs(pt.LTimesProduct-4*res.Params.Alpha*float64(res.Params.Omega)) / (4 * res.Params.Alpha * float64(res.Params.Omega)); dev > worst {
			worst = dev
		}
	}
	b.WriteString(fmt.Sprintf("(max deviation %.2g)\n", worst))
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Figure7Series is one S-transmitters curve of Figure 7.
type Figure7Series struct {
	S         int
	BetaMax   float64   // channel-utilization cap from Pc ≤ 1 %
	Crossover float64   // η = 2αβm: constraint becomes active (the circles)
	Etas      []float64 // duty-cycle sweep
	Latency   []float64 // Theorem 5.6 bound, ticks
}

// Figure7Result reproduces Figure 7.
type Figure7Result struct {
	Params        core.Params
	PcMax         float64
	Unconstrained []float64 // 4αω/η² reference over Etas
	Etas          []float64
	Series        []Figure7Series
}

// RunFigure7 evaluates the collision-rate-constrained bounds for
// S ∈ {10, 100, 1000} at Pc ≤ 1 %, as in the paper.
func RunFigure7(p core.Params) Figure7Result {
	res := Figure7Result{Params: p, PcMax: 0.01}
	for eta := 0.0005; eta <= 1.0+1e-12; eta *= 1.2 {
		res.Etas = append(res.Etas, eta)
	}
	res.Unconstrained = make([]float64, len(res.Etas))
	for i, eta := range res.Etas {
		res.Unconstrained[i] = p.Symmetric(eta)
	}
	for _, s := range []int{10, 100, 1000} {
		lat, crossover := collision.ConstrainedSeries(p, res.Etas, s, res.PcMax)
		res.Series = append(res.Series, Figure7Series{
			S:         s,
			BetaMax:   core.MaxBetaForCollisionRate(s, res.PcMax),
			Crossover: crossover,
			Etas:      res.Etas,
			Latency:   lat,
		})
	}
	return res
}

// Render formats the Figure 7 reproduction.
func (res Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Figure 7 — bounds on L with collision rate ≤ %.0f%% (ω=%v, α=%g)\n\n",
		res.PcMax*100, res.Params.Omega, res.Params.Alpha))
	plot := textplot.Plot{
		Title: "L [s] vs duty-cycle η (log-log)", LogX: true, LogY: true,
		XLabel: "η", YLabel: "L in s",
	}
	var xs, ys []float64
	for i, eta := range res.Etas {
		if !math.IsNaN(res.Unconstrained[i]) {
			xs = append(xs, eta)
			ys = append(ys, res.Unconstrained[i]/1e6)
		}
	}
	plot.AddSeries("unconstrained 4αω/η²", '·', xs, ys)
	markers := []rune{'1', '2', '3'}
	for i, s := range res.Series {
		var sx, sy []float64
		for j, eta := range s.Etas {
			if !math.IsNaN(s.Latency[j]) {
				sx = append(sx, eta)
				sy = append(sy, s.Latency[j]/1e6)
			}
		}
		plot.AddSeries(fmt.Sprintf("S=%d (βm=%.4g, crossover η=%.4g)", s.S, s.BetaMax, s.Crossover),
			markers[i%len(markers)], sx, sy)
	}
	b.WriteString(plot.String())
	return b.String()
}

// ------------------------------------------------- Section 6.1 (Eq 18/19)

// SlottedAlphaRow compares the slotted latency limits to the fundamental
// bound at one power ratio α.
type SlottedAlphaRow struct {
	Alpha      float64
	ZhengRatio float64 // Eq 18 / Theorem 5.5
	CodeRatio  float64 // Eq 19 / Theorem 5.5
}

// SlottedAlphaResult reproduces the Section 6.1.1 analysis.
type SlottedAlphaResult struct {
	Omega timebase.Ticks
	Rows  []SlottedAlphaRow
}

// RunSlottedAlpha sweeps α and reports how far the slotted limits sit above
// the fundamental bound: Eq 18 touches it exactly at α = 1, Eq 19 at α = ½.
func RunSlottedAlpha(omega timebase.Ticks) SlottedAlphaResult {
	res := SlottedAlphaResult{Omega: omega}
	for _, alpha := range []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 4, 8} {
		p := core.Params{Omega: omega, Alpha: alpha}
		eta := 0.05 // ratios are η-independent
		res.Rows = append(res.Rows, SlottedAlphaRow{
			Alpha:      alpha,
			ZhengRatio: p.SlottedZhengTime(eta) / p.Symmetric(eta),
			CodeRatio:  p.SlottedCodeTime(eta) / p.Symmetric(eta),
		})
	}
	return res
}

// Render formats the slotted-limit comparison.
func (res SlottedAlphaResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 6.1.1 — slotted latency limits vs the fundamental bound\n")
	b.WriteString("(ratio 1.0 = meets the bound; Eq 18 at α=1, Eq 19 at α=0.5)\n\n")
	t := textplot.NewTable("α", "Eq18 / Thm5.5 (Zheng, I=ω)", "Eq19 / Thm5.5 (code-based)")
	for _, row := range res.Rows {
		t.AddF(row.Alpha, row.ZhengRatio, row.CodeRatio)
	}
	b.WriteString(t.String())
	return b.String()
}

// ------------------------------------------------------------- Appendix B

// AppendixBResult reproduces the Appendix B worked example.
type AppendixBResult struct {
	Params     core.Params
	Eta, Pf    float64
	S          int
	IntegerQ   collision.Solution
	Fractional collision.Solution

	// Paper-reported reference values for the same inputs.
	PaperQ       int
	PaperLatency float64 // seconds
	PaperBeta    float64
}

// RunAppendixB solves the paper's example (η=5 %, Pf=0.05 %, S=3).
func RunAppendixB(p core.Params) (AppendixBResult, error) {
	res := AppendixBResult{
		Params: p, Eta: 0.05, Pf: 0.0005, S: 3,
		PaperQ: 3, PaperLatency: 0.1583, PaperBeta: 0.0207,
	}
	var err error
	res.IntegerQ, err = collision.SolveIntegerQ(p, res.Eta, res.Pf, res.S, 8)
	if err != nil {
		return res, err
	}
	res.Fractional, err = collision.SolveFractional(p, res.Eta, res.Pf, res.S, 8)
	return res, err
}

// Render formats the Appendix B comparison.
func (res AppendixBResult) Render() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Appendix B — redundancy under collisions (η=%.3g, Pf=%.3g, S=%d)\n\n",
		res.Eta, res.Pf, res.S))
	t := textplot.NewTable("solver", "Q", "q", "β", "Pc", "L′ [s]")
	t.AddF("paper (reported)", res.PaperQ, "—", res.PaperBeta, 0.079, res.PaperLatency)
	t.AddF("integer Q (Eq 32, q=0)", res.IntegerQ.Q, res.IntegerQ.QFrac,
		res.IntegerQ.Beta, res.IntegerQ.Pc, res.IntegerQ.Latency/1e6)
	t.AddF("fractional (Q+q)", res.Fractional.Q, res.Fractional.QFrac,
		res.Fractional.Beta, res.Fractional.Pc, res.Fractional.Latency/1e6)
	b.WriteString(t.String())
	b.WriteString("\nSee EXPERIMENTS.md for why the paper's exact L′ is not recoverable\nfrom Eq 32/33 and how the regime reproduces.\n")
	return b.String()
}

// -------------------------------------------------------- Achievability

// AchievabilityRow certifies one construction against its bound.
type AchievabilityRow struct {
	Name     string
	Eta      float64 // achieved duty-cycle (per device)
	Bound    float64 // closed-form bound at achieved duty-cycles, ticks
	Measured timebase.Ticks
	Ratio    float64 // measured / bound; 1.0 = bound met exactly
}

// AchievabilityResult is the constructive-tightness table: every bound in
// Section 5 / Appendix C paired with a schedule that meets it.
type AchievabilityResult struct {
	Params core.Params
	Rows   []AchievabilityRow
}

// RunAchievability builds optimal schedules across duty-cycles and
// re-measures them with the coverage engine.
func RunAchievability(p core.Params) (AchievabilityResult, error) {
	res := AchievabilityResult{Params: p}

	for _, eta := range []float64{0.01, 0.02, 0.05} {
		pair, err := optimal.NewSymmetric(p.Omega, p.Alpha, eta)
		if err != nil {
			return res, err
		}
		ana, err := coverage.Analyze(pair.E.B, pair.F.C, coverage.Options{})
		if err != nil {
			return res, err
		}
		etaAch := pair.E.Eta(p.Alpha)
		bound := p.Symmetric(etaAch)
		res.Rows = append(res.Rows, AchievabilityRow{
			Name: fmt.Sprintf("symmetric (Thm 5.5) η=%.3g", eta),
			Eta:  etaAch, Bound: bound, Measured: ana.WorstLatency,
			Ratio: core.OptimalityRatio(float64(ana.WorstLatency), bound),
		})
	}

	pair, err := optimal.NewAsymmetric(p.Omega, p.Alpha, 0.02, 0.08)
	if err != nil {
		return res, err
	}
	anaEF, err := coverage.Analyze(pair.E.B, pair.F.C, coverage.Options{})
	if err != nil {
		return res, err
	}
	anaFE, err := coverage.Analyze(pair.F.B, pair.E.C, coverage.Options{})
	if err != nil {
		return res, err
	}
	measured := anaEF.WorstLatency
	if anaFE.WorstLatency > measured {
		measured = anaFE.WorstLatency
	}
	bound := p.Asymmetric(pair.E.Eta(p.Alpha), pair.F.Eta(p.Alpha))
	res.Rows = append(res.Rows, AchievabilityRow{
		Name: "asymmetric (Thm 5.7) ηE=0.02 ηF=0.08",
		Eta:  pair.E.Eta(p.Alpha) + pair.F.Eta(p.Alpha), Bound: bound, Measured: measured,
		Ratio: core.OptimalityRatio(float64(measured), bound),
	})

	cPair, err := optimal.NewConstrained(p.Omega, p.Alpha, 0.05, 0.005)
	if err != nil {
		return res, err
	}
	anaC, err := coverage.Analyze(cPair.E.B, cPair.F.C, coverage.Options{})
	if err != nil {
		return res, err
	}
	etaAch := cPair.E.Eta(p.Alpha)
	boundC := p.Constrained(etaAch, cPair.E.B.Beta())
	res.Rows = append(res.Rows, AchievabilityRow{
		Name: "constrained (Thm 5.6) η=0.05 βm=0.005",
		Eta:  etaAch, Bound: boundC, Measured: anaC.WorstLatency,
		Ratio: core.OptimalityRatio(float64(anaC.WorstLatency), boundC),
	})

	quad, err := optimal.ForEta(p.Omega, p.Alpha, 0.05)
	if err != nil {
		return res, err
	}
	covered, worst := optimal.VerifyMutualExclusive(quad)
	if !covered {
		return res, fmt.Errorf("eval: mutual-exclusive quadruple has uncovered offsets")
	}
	etaQ := quad.Eta(p.Alpha)
	boundQ := p.MutualExclusive(etaQ)
	res.Rows = append(res.Rows, AchievabilityRow{
		Name: "mutual-exclusive (Thm C.1) η=0.05",
		Eta:  etaQ, Bound: boundQ, Measured: worst,
		Ratio: core.OptimalityRatio(float64(worst), boundQ),
	})
	return res, nil
}

// Render formats the achievability table.
func (res AchievabilityResult) Render() string {
	var b strings.Builder
	b.WriteString("Achievability — constructions vs bounds (ratio 1.0 = tight)\n\n")
	t := textplot.NewTable("construction", "η achieved", "bound", "measured", "ratio")
	for _, row := range res.Rows {
		t.AddF(row.Name, row.Eta, ms(row.Bound), row.Measured.String(), row.Ratio)
	}
	b.WriteString(t.String())
	return b.String()
}

// --------------------------------------------------- Monte-Carlo collisions

// CollisionMCRow compares a measured group-simulation collision rate to the
// Equation 12 prediction.
type CollisionMCRow struct {
	S         int
	Beta      float64
	Predicted float64
	Measured  float64
	Failure   float64 // fraction of pairs undiscovered within the horizon
}

// CollisionMCResult validates Equation 12 in the event simulator.
type CollisionMCResult struct {
	Rows []CollisionMCRow
}

// RunCollisionMC simulates S jittered beaconers and measures collisions.
func RunCollisionMC(p core.Params, trials int) (CollisionMCResult, error) {
	res := CollisionMCResult{}
	gap := timebase.Ticks(3600) // β ≈ 0.01 with ω=36
	b, err := schedule.NewEqualGapBeacons(1, gap, p.Omega, 0)
	if err != nil {
		return res, err
	}
	dev := schedule.Device{B: b, C: schedule.WindowSeq{
		Windows: []schedule.Window{{Start: gap - 360, Len: 360}}, Period: gap}}
	beta := dev.B.Beta()
	cfg := sim.Config{Horizon: 60 * gap, Collisions: true, Jitter: gap / 3}
	scr := sim.NewScratch()
	for _, s := range []int{2, 5, 10, 20} {
		// Each row restarts the same seeded trial stream.
		rng := rand.New(rand.NewSource(1234))
		row := CollisionMCRow{S: s, Beta: beta, Predicted: core.CollisionProbability(s, beta)}
		var transmissions, collided, pairs, misses int
		for t := 0; t < trials; t++ {
			tr, err := sim.GroupTrialScratch(dev, s, cfg, rng, scr)
			if err != nil {
				return res, err
			}
			transmissions += tr.Transmissions
			collided += tr.Collided
			pairs += len(tr.Samples) + tr.Misses
			misses += tr.Misses
		}
		if transmissions > 0 {
			row.Measured = float64(collided) / float64(transmissions)
		}
		if pairs > 0 {
			row.Failure = float64(misses) / float64(pairs)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the Monte-Carlo collision validation.
func (res CollisionMCResult) Render() string {
	var b strings.Builder
	b.WriteString("Equation 12 validation — simulated vs predicted collision rates\n\n")
	t := textplot.NewTable("S", "β", "Pc predicted (Eq 12)", "Pc simulated", "pair failure rate")
	for _, row := range res.Rows {
		t.AddF(row.S, row.Beta, row.Predicted, row.Measured, row.Failure)
	}
	b.WriteString(t.String())
	return b.String()
}

func ms(ticks float64) string {
	if math.IsNaN(ticks) {
		return "—"
	}
	return fmt.Sprintf("%.4g ms", ticks/1000)
}
