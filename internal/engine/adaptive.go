package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// An AdaptiveSpec is a coarse-to-fine parameter search: the same base
// scenario and axes a SweepSpec has, plus an objective to optimize. The
// axis value lists form the coarse round-0 grid; every later round brackets
// the best point seen so far between its evaluated neighbors on each axis
// and lays a finer uniform grid inside the bracket, until the bracket is
// narrower than Tolerance (relative to the coarse axis span) on every axis
// or Rounds is exhausted. Every evaluated point runs through the ordinary
// scenario executor — shared worker pool, deterministic per-trial RNG
// streams, order-insensitive accumulators — so each point's aggregate, and
// therefore the whole refinement trace, is bit-identical for any worker
// count.
type AdaptiveSpec struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Base        Scenario    `json:"base"`
	Axes        []SweepAxis `json:"axes"`

	// Objective is the aggregate field the search optimizes, as a dotted
	// path into the Aggregate JSON shape: "bound_ratio", "latency.mean",
	// "latency.p95", "failure_rate", "collision_rate", … (see
	// ObjectiveNames for the full set).
	Objective string `json:"objective"`

	// Goal is "min" (default) or "max".
	Goal string `json:"goal,omitempty"`

	// Rounds caps the refinement rounds after the coarse pass; 0 means 4.
	Rounds int `json:"rounds,omitempty"`

	// Budget caps the grid laid per refinement round (already-evaluated
	// points are recalled from the memo, not re-run). 0 means the larger
	// of the coarse grid size and 3 points per axis; the minimum useful
	// value is 3^len(Axes).
	Budget int `json:"budget,omitempty"`

	// Tolerance is the relative bracket width — (hi−lo) divided by the
	// coarse span of the axis — below which an axis counts as converged.
	// 0 means 0.05. Integer axes additionally converge when the bracket
	// contains no unevaluated integer.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Adaptive defaults and caps.
const (
	defaultAdaptiveRounds    = 4
	defaultAdaptiveTolerance = 0.05
	maxAdaptiveRounds        = 64
	// maxAdaptiveAxisPoints caps one axis's refinement resolution so a
	// huge Budget on a low-dimensional search stays a grid, not a scan.
	maxAdaptiveAxisPoints = 65
	// maxAdaptiveAxes bounds the search dimension: past it even the
	// minimal 3-point-per-axis refinement grid (3^axes) would blow
	// through maxSweepPoints, so no budget could be honored.
	maxAdaptiveAxes = 10
)

// objectiveFields maps objective paths (the Aggregate JSON field names) to
// extractors. Latency quantities are in ticks.
var objectiveFields = map[string]func(Aggregate) float64{
	"latency.mean":     func(a Aggregate) float64 { return a.Latency.Mean },
	"latency.min":      func(a Aggregate) float64 { return float64(a.Latency.Min) },
	"latency.max":      func(a Aggregate) float64 { return float64(a.Latency.Max) },
	"latency.p50":      func(a Aggregate) float64 { return float64(a.Latency.P50) },
	"latency.p95":      func(a Aggregate) float64 { return float64(a.Latency.P95) },
	"latency.p99":      func(a Aggregate) float64 { return float64(a.Latency.P99) },
	"exact_worst":      func(a Aggregate) float64 { return float64(a.ExactWorst) },
	"exact_mean":       func(a Aggregate) float64 { return a.ExactMean },
	"bound":            func(a Aggregate) float64 { return a.Bound },
	"bound_ratio":      func(a Aggregate) float64 { return a.BoundRatio },
	"covered_fraction": func(a Aggregate) float64 { return a.CoveredFraction },
	"failure_rate":     func(a Aggregate) float64 { return a.FailureRate },
	"collision_rate":   func(a Aggregate) float64 { return a.CollisionRate },
}

// ObjectiveNames lists the supported objective field paths, sorted.
func ObjectiveNames() []string {
	names := make([]string, 0, len(objectiveFields))
	for n := range objectiveFields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// normalized returns a copy with defaults applied and each axis's values
// sorted ascending (validation has already rejected duplicates), so the
// refinement ladder is well-ordered no matter how the spec lists them.
func (ap AdaptiveSpec) normalized() AdaptiveSpec {
	out := ap
	if out.Goal == "" {
		out.Goal = "min"
	}
	if out.Rounds == 0 {
		out.Rounds = defaultAdaptiveRounds
	}
	if out.Budget == 0 {
		out.Budget = ap.coarseSpec().Points()
		if min := pow3(len(ap.Axes)); out.Budget < min {
			out.Budget = min
		}
	}
	if out.Tolerance == 0 {
		out.Tolerance = defaultAdaptiveTolerance
	}
	out.Axes = make([]SweepAxis, len(ap.Axes))
	for i, ax := range ap.Axes {
		vals := append([]float64(nil), ax.Values...)
		sort.Float64s(vals)
		out.Axes[i] = SweepAxis{Field: ax.Field, Values: vals}
	}
	return out
}

// coarseSpec is the round-0 grid as an ordinary sweep.
func (ap AdaptiveSpec) coarseSpec() SweepSpec {
	return SweepSpec{Name: ap.Name, Description: ap.Description, Base: ap.Base, Axes: ap.Axes}
}

func pow3(n int) int {
	p := 1
	for i := 0; i < n && p < maxSweepPoints; i++ {
		p *= 3
	}
	return p
}

// Validate checks the spec: the embedded sweep shape (name, known distinct
// axes, integral values where required, bounded grid), a known objective,
// a min/max goal, and sane refinement parameters.
func (ap AdaptiveSpec) Validate() error {
	if err := ap.coarseSpec().Validate(); err != nil {
		return err
	}
	if len(ap.Axes) > maxAdaptiveAxes {
		return fmt.Errorf("engine: adaptive %q: %d axes exceed the %d-axis limit (a 3-point refinement grid would pass %d points)", ap.Name, len(ap.Axes), maxAdaptiveAxes, maxSweepPoints)
	}
	if _, ok := objectiveFields[ap.Objective]; !ok {
		return fmt.Errorf("engine: adaptive %q: unknown objective %q (have %v)", ap.Name, ap.Objective, ObjectiveNames())
	}
	switch ap.Goal {
	case "", "min", "max":
	default:
		return fmt.Errorf("engine: adaptive %q: goal must be \"min\" or \"max\", got %q", ap.Name, ap.Goal)
	}
	if ap.Rounds < 0 || ap.Rounds > maxAdaptiveRounds {
		return fmt.Errorf("engine: adaptive %q: rounds %d out of range [0, %d]", ap.Name, ap.Rounds, maxAdaptiveRounds)
	}
	if ap.Budget < 0 || ap.Budget > maxSweepPoints {
		return fmt.Errorf("engine: adaptive %q: budget %d out of range [0, %d]", ap.Name, ap.Budget, maxSweepPoints)
	}
	if ap.Budget != 0 && ap.Budget < pow3(len(ap.Axes)) {
		return fmt.Errorf("engine: adaptive %q: budget %d cannot fit a 3-point refinement per axis (need ≥ %d)", ap.Name, ap.Budget, pow3(len(ap.Axes)))
	}
	if ap.Tolerance < 0 || ap.Tolerance >= 1 {
		return fmt.Errorf("engine: adaptive %q: tolerance %g must be in (0, 1)", ap.Name, ap.Tolerance)
	}
	return nil
}

// AdaptivePoint is one evaluated grid point of the refinement trace: its
// axis coordinates (in spec axis order), the round that evaluated it, the
// extracted objective value, and the full aggregate. Round summaries and
// the overall best omit the aggregate — it is already recorded on the
// point itself.
type AdaptivePoint struct {
	Name      string     `json:"name"`
	Round     int        `json:"round"`
	Values    []float64  `json:"values"`
	Objective float64    `json:"objective"`
	Aggregate *Aggregate `json:"aggregate,omitempty"`
}

// AxisBracket is one axis's refinement state after a round: the interval
// between the best point's evaluated neighbors, its width relative to the
// coarse axis span, and whether the axis has converged.
type AxisBracket struct {
	Field     string  `json:"field"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	RelWidth  float64 `json:"rel_width"`
	Converged bool    `json:"converged"`
}

// AdaptiveRound is one round of the trace: the points newly evaluated that
// round (grid order), the best point seen so far, and the per-axis
// brackets the next round would refine.
type AdaptiveRound struct {
	Round    int             `json:"round"`
	Points   []AdaptivePoint `json:"points"`
	Best     AdaptivePoint   `json:"best"`
	Brackets []AxisBracket   `json:"brackets"`
}

// AdaptiveResult is the full outcome of an adaptive search — the document
// `ndscen -adaptive -out` emits and the golden harness pins. Like every
// engine result it is bit-identical for any worker count.
type AdaptiveResult struct {
	Name        string          `json:"name"`
	Description string          `json:"description,omitempty"`
	Objective   string          `json:"objective"`
	Goal        string          `json:"goal"`
	Tolerance   float64         `json:"tolerance"`
	Converged   bool            `json:"converged"`
	Evaluations int             `json:"evaluations"`
	Best        AdaptivePoint   `json:"best"`
	Rounds      []AdaptiveRound `json:"rounds"`

	// Runtime accumulates the per-round executor invocations' metrics
	// (merged via obs.RunMetrics.Merge) plus the search's memo-cache
	// hits. Like every runtime section it is outside the determinism
	// contract and stripped (StripRuntime) before golden comparison.
	Runtime *obs.RunMetrics `json:"runtime,omitempty"`
}

// adaptiveEvaluator runs a batch of scenarios and returns their aggregates
// in input order. Production uses runMany; tests inject synthetic
// aggregates to exercise the search logic against known objectives.
type adaptiveEvaluator func([]Scenario) ([]Aggregate, error)

// RunAdaptive executes the coarse-to-fine search: the coarse grid first,
// then up to Rounds refinement rounds, each running its new points
// concurrently over one shared worker pool. Previously evaluated
// coordinates are recalled from a memo, never re-run, so raising Rounds
// extends (and never reshuffles) a shorter search.
func RunAdaptive(ap AdaptiveSpec, opt Options) (AdaptiveResult, error) {
	// Each round is one runMany invocation; their metrics merge into a
	// single record carried on the result (and on opt.Metrics when set),
	// with the search's own memo hits folded in.
	var total obs.RunMetrics
	res, err := runAdaptive(ap, func(scs []Scenario) ([]Aggregate, error) {
		o := opt
		var m obs.RunMetrics
		o.Metrics = &m
		aggs, err := runMany(scs, o)
		total.Merge(m)
		return aggs, err
	})
	if err != nil {
		return res, err
	}
	if res.Runtime != nil {
		total.MemoHits = res.Runtime.MemoHits
	}
	res.Runtime = &total
	if opt.Metrics != nil {
		*opt.Metrics = total
	}
	return res, nil
}

// adaptiveSearch is the mutable state of one search run.
type adaptiveSearch struct {
	spec      AdaptiveSpec // normalized
	eval      adaptiveEvaluator
	objective func(Aggregate) float64
	points    []AdaptivePoint // evaluation order
	seen      map[string]bool // canonical coordinate keys
	ladders   [][]float64     // sorted distinct evaluated values per axis
	spans     []float64       // coarse axis spans (hi − lo of round-0 values)
	memoHits  int             // grid coordinates recalled from seen, not re-run
}

func runAdaptive(ap AdaptiveSpec, eval adaptiveEvaluator) (AdaptiveResult, error) {
	if err := ap.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	sp := ap.normalized()
	s := &adaptiveSearch{
		spec:      sp,
		eval:      eval,
		objective: objectiveFields[sp.Objective],
		seen:      make(map[string]bool),
		ladders:   make([][]float64, len(sp.Axes)),
		spans:     make([]float64, len(sp.Axes)),
	}
	for a, ax := range sp.Axes {
		s.spans[a] = ax.Values[len(ax.Values)-1] - ax.Values[0]
	}

	res := AdaptiveResult{
		Name:        sp.Name,
		Description: sp.Description,
		Objective:   sp.Objective,
		Goal:        sp.Goal,
		Tolerance:   sp.Tolerance,
	}

	// Round 0: the coarse grid, in sweep (row-major) order.
	round, err := s.evaluateRound(0, sp.coarseSpec().grid())
	if err != nil {
		return AdaptiveResult{}, err
	}
	res.Rounds = append(res.Rounds, round)

	for r := 1; r <= sp.Rounds; r++ {
		last := &res.Rounds[len(res.Rounds)-1]
		if allConverged(last.Brackets) {
			res.Converged = true
			break
		}
		grid := s.refinementGrid(last.Best.Values, last.Brackets)
		round, err := s.evaluateRound(r, grid)
		if err != nil {
			return AdaptiveResult{}, err
		}
		// A round that found nothing new means every remaining candidate
		// was already evaluated; the brackets cannot narrow further.
		stalled := len(round.Points) == 0
		res.Rounds = append(res.Rounds, round)
		if stalled {
			break
		}
	}
	final := res.Rounds[len(res.Rounds)-1]
	res.Converged = res.Converged || allConverged(final.Brackets)
	res.Best = final.Best
	res.Evaluations = len(s.points)
	if s.memoHits > 0 {
		res.Runtime = &obs.RunMetrics{MemoHits: s.memoHits}
	}
	return res, nil
}

// evaluateRound runs the not-yet-evaluated points of the round's grid,
// records them, and summarizes the round: best point so far and per-axis
// brackets around it.
func (s *adaptiveSearch) evaluateRound(round int, grid [][]float64) (AdaptiveRound, error) {
	var fresh [][]float64
	var scenarios []Scenario
	for _, vals := range grid {
		key := coordKey(vals)
		if s.seen[key] {
			s.memoHits++
			continue
		}
		s.seen[key] = true
		sc, err := s.spec.coarseSpec().point("adaptive", fmt.Sprintf("%s/r%d", s.spec.Name, round), vals)
		if err != nil {
			return AdaptiveRound{}, err
		}
		fresh = append(fresh, vals)
		scenarios = append(scenarios, sc)
	}
	out := AdaptiveRound{Round: round}
	if len(scenarios) > 0 {
		aggs, err := s.eval(scenarios)
		if err != nil {
			return AdaptiveRound{}, err
		}
		if len(aggs) != len(scenarios) {
			return AdaptiveRound{}, fmt.Errorf("engine: adaptive %q: evaluator returned %d aggregates for %d scenarios", s.spec.Name, len(aggs), len(scenarios))
		}
		for i := range scenarios {
			agg := aggs[i]
			pt := AdaptivePoint{
				Name:      scenarios[i].Name,
				Round:     round,
				Values:    fresh[i],
				Objective: s.objective(agg),
				Aggregate: &agg,
			}
			s.points = append(s.points, pt)
			for a, v := range fresh[i] {
				s.ladders[a] = insertSorted(s.ladders[a], v)
			}
			out.Points = append(out.Points, pt)
		}
	}
	best := s.best()
	out.Best = best
	out.Best.Aggregate = nil
	out.Brackets = s.brackets(best.Values)
	return out, nil
}

// best ranks all evaluated points: strictly better objective wins, ties
// keep the earlier evaluation — both independent of worker scheduling, so
// the choice is deterministic. NaN objectives never win.
func (s *adaptiveSearch) best() AdaptivePoint {
	bi := 0
	for i := 1; i < len(s.points); i++ {
		if s.better(s.points[i].Objective, s.points[bi].Objective) {
			bi = i
		}
	}
	return s.points[bi]
}

func (s *adaptiveSearch) better(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	if s.spec.Goal == "max" {
		return a > b
	}
	return a < b
}

// brackets computes, for each axis, the interval between the best point's
// evaluated neighbors on that axis — the region a unimodal objective pins
// its optimum to — and judges convergence against the tolerance.
func (s *adaptiveSearch) brackets(bestVals []float64) []AxisBracket {
	out := make([]AxisBracket, len(s.spec.Axes))
	for a, ax := range s.spec.Axes {
		lo, hi := neighbors(s.ladders[a], bestVals[a])
		br := AxisBracket{Field: ax.Field, Lo: lo, Hi: hi}
		if s.spans[a] > 0 {
			br.RelWidth = (hi - lo) / s.spans[a]
		}
		br.Converged = s.axisConverged(a, br, bestVals[a])
		out[a] = br
	}
	return out
}

// axisConverged: the bracket is relatively narrower than the tolerance, the
// axis never had extent, or (integer axes) no unevaluated integer is left
// inside the bracket to try.
func (s *adaptiveSearch) axisConverged(a int, br AxisBracket, best float64) bool {
	if s.spans[a] == 0 || br.RelWidth <= s.spec.Tolerance {
		return true
	}
	if sweepFields[s.spec.Axes[a].Field].integer {
		// Lo and Hi are the best value's adjacent evaluated neighbors, so
		// the only evaluated value strictly inside the bracket is the best
		// itself; the axis is exhausted when no other integer fits there.
		interior := br.Hi - br.Lo - 1
		if best > br.Lo && best < br.Hi {
			interior--
		}
		return interior < 1
	}
	return false
}

// refinementGrid lays the next round's grid: converged axes stay pinned at
// the best value; each unconverged axis gets n evenly spaced values across
// its bracket (endpoints included — the memo skips the ones already run),
// with n chosen so the whole grid fits the per-round budget.
func (s *adaptiveSearch) refinementGrid(bestVals []float64, brackets []AxisBracket) [][]float64 {
	open := 0
	for _, br := range brackets {
		if !br.Converged {
			open++
		}
	}
	n := axisResolution(s.spec.Budget, open)
	axes := make([][]float64, len(brackets))
	for a, br := range brackets {
		if br.Converged {
			axes[a] = []float64{bestVals[a]}
			continue
		}
		axes[a] = s.axisValues(a, br, n)
	}
	return cartesian(axes)
}

// axisResolution is the per-axis point count: the largest n ≥ 3 with
// n^axes ≤ budget, capped so one axis never degenerates into a scan.
func axisResolution(budget, axes int) int {
	if axes == 0 {
		return 1
	}
	n := 3
	for n < maxAdaptiveAxisPoints {
		p := 1
		over := false
		for i := 0; i < axes; i++ {
			p *= n + 1
			if p > budget {
				over = true
				break
			}
		}
		if over {
			break
		}
		n++
	}
	return n
}

// axisValues spaces n values evenly across the bracket; integer axes round
// to the nearest integer and deduplicate.
func (s *adaptiveSearch) axisValues(a int, br AxisBracket, n int) []float64 {
	integer := sweepFields[s.spec.Axes[a].Field].integer
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := br.Lo + (br.Hi-br.Lo)*float64(i)/float64(n-1)
		if integer {
			v = math.Round(v)
		}
		if len(vals) > 0 && vals[len(vals)-1] == v {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}

func allConverged(brackets []AxisBracket) bool {
	for _, br := range brackets {
		if !br.Converged {
			return false
		}
	}
	return true
}

// coordKey is the canonical memo key of a coordinate vector.
func coordKey(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = formatAxisValue(v)
	}
	return strings.Join(parts, ",")
}

// neighbors returns the values bracketing v in the sorted ladder: the
// largest evaluated value strictly below and the smallest strictly above
// (v itself at the ladder's ends).
func neighbors(ladder []float64, v float64) (lo, hi float64) {
	lo, hi = v, v
	i := sort.SearchFloat64s(ladder, v)
	if i > 0 {
		lo = ladder[i-1]
	}
	// Skip past v (and any equal entries — the ladder is distinct, so at
	// most one).
	j := i
	if j < len(ladder) && ladder[j] == v {
		j++
	}
	if j < len(ladder) {
		hi = ladder[j]
	}
	return lo, hi
}

// insertSorted inserts v into a sorted distinct slice, keeping it sorted
// and distinct.
func insertSorted(l []float64, v float64) []float64 {
	i := sort.SearchFloat64s(l, v)
	if i < len(l) && l[i] == v {
		return l
	}
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = v
	return l
}
