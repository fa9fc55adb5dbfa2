package nd

import (
	"io"

	"repro/internal/engine"
	"repro/internal/obs"
)

// The scenario engine: declarative, JSON-serializable experiment specs, a
// registry of named presets and suites, parameter sweeps (fixed grids and
// adaptive coarse-to-fine searches), and a parallel Monte-Carlo executor
// whose aggregate results are bit-identical for any worker count (each
// trial runs on its own RNG stream derived from the scenario's identity
// hash and trial index).
type (
	// Scenario is one declarative experiment: protocol + population +
	// channel model + optional churn + trial count.
	Scenario = engine.Scenario
	// ProtocolSpec names a protocol construction and its parameters.
	ProtocolSpec = engine.ProtocolSpec
	// ChannelSpec selects channel and radio semantics.
	ChannelSpec = engine.ChannelSpec
	// ChurnSpec switches a scenario to the mobility workload.
	ChurnSpec = engine.ChurnSpec
	// HorizonSpec resolves the simulated duration.
	HorizonSpec = engine.HorizonSpec
	// EngineOptions tunes execution (worker count, trial override, exact
	// analysis, progress and metrics hooks).
	EngineOptions = engine.Options
	// ScenarioResult is the aggregate outcome of one scenario.
	ScenarioResult = engine.Aggregate
	// ChannelStat is one advertising channel's row of a multi-channel
	// scenario's per-channel breakdown: Monte-Carlo discovery counts by
	// channel, the per-channel packet traffic and collision accounting of
	// the multi-node kinds ("multichannel-group", "multichannel-churn"),
	// plus the exact branch-entry analysis.
	ChannelStat = engine.ChannelStat
	// SuiteResult is the JSON document ndscen emits.
	SuiteResult = engine.SuiteResult
	// SweepSpec is a first-class parameter sweep: a base scenario plus
	// named axes expanded into a cartesian scenario grid.
	SweepSpec = engine.SweepSpec
	// SweepAxis ranges one scenario field over a value list.
	SweepAxis = engine.SweepAxis
	// AdaptiveSpec is a coarse-to-fine parameter search: sweep axes plus
	// an objective, refined by bracketing the best point each round.
	AdaptiveSpec = engine.AdaptiveSpec
	// AdaptiveResult is the full refinement trace of an adaptive search.
	AdaptiveResult = engine.AdaptiveResult
	// AdaptiveRound is one round of an adaptive trace: newly evaluated
	// points, the best point so far, and the per-axis brackets.
	AdaptiveRound = engine.AdaptiveRound
	// AdaptivePoint is one evaluated point of an adaptive search.
	AdaptivePoint = engine.AdaptivePoint
	// AxisBracket is one axis's refinement interval and convergence state.
	AxisBracket = engine.AxisBracket
)

// Observability types, re-exported from the zero-dependency obs package.
// All of them live OUTSIDE the engine's determinism contract: metrics
// describe how a run executed (wall time, throughput, worker utilization,
// cache traffic), never what it computed, and are structurally excluded
// from golden comparison.
type (
	// RunMetrics is the per-run execution record EngineOptions.Metrics
	// fills: wall time, trials/sec, per-worker busy fractions, build-cache
	// traffic, the quantized-vs-exact-key point split and the peak
	// accumulator memory estimate.
	RunMetrics = obs.RunMetrics
	// PointMetrics is the per-scenario slice of a run's metrics, attached
	// to every ScenarioResult under its "runtime" key.
	PointMetrics = obs.PointMetrics
	// CacheStats counts schedule-analysis cache hits, misses and
	// evictions over one run.
	CacheStats = obs.CacheStats
	// Progress is one snapshot delivered to EngineOptions.Progress:
	// points/trials done vs total, elapsed time and an ETA estimate.
	Progress = obs.Progress
)

// RunScenario executes one scenario, sharding its Monte-Carlo trials
// across the configured worker pool.
func RunScenario(sc Scenario, opt EngineOptions) (ScenarioResult, error) {
	return engine.RunScenario(sc, opt)
}

// RunScenarios executes the scenarios in order (each internally parallel).
func RunScenarios(scenarios []Scenario, opt EngineOptions) ([]ScenarioResult, error) {
	return engine.RunSuite(scenarios, opt)
}

// RunSuite executes a named registry suite.
func RunSuite(name string, opt EngineOptions) ([]ScenarioResult, error) {
	scenarios, err := engine.Suite(name)
	if err != nil {
		return nil, err
	}
	return engine.RunSuite(scenarios, opt)
}

// RunSweep expands a parameter sweep and runs every grid point
// concurrently over one shared worker pool, returning one aggregate per
// point in grid order (first axis slowest). Each point's aggregate is
// bit-identical for any worker count.
func RunSweep(sp SweepSpec, opt EngineOptions) ([]ScenarioResult, error) {
	return engine.RunSweep(sp, opt)
}

// ExpandSweep materializes a sweep's scenario matrix without running it.
func ExpandSweep(sp SweepSpec) ([]Scenario, error) { return sp.Expand() }

// SweepPreset returns a fresh copy of a named registry sweep.
func SweepPreset(name string) (SweepSpec, error) { return engine.SweepPreset(name) }

// SweepPresets lists the registry's sweep preset names.
func SweepPresets() []string { return engine.SweepPresets() }

// SweepFields lists the scenario field paths a sweep axis may range over.
func SweepFields() []string { return engine.SweepFieldNames() }

// RenderSweepTable renders sweep results with axis-value columns, one row
// per grid point.
func RenderSweepTable(sp SweepSpec, results []ScenarioResult) string {
	return engine.RenderSweepTable(sp, results)
}

// RunAdaptive executes a coarse-to-fine adaptive search: the coarse axis
// grid first, then refinement rounds that subdivide the bracket around the
// best objective value until every axis converges within the tolerance.
// Each round's points run concurrently over one shared worker pool;
// previously evaluated coordinates are memoized, and the whole trace is
// bit-identical for any worker count.
func RunAdaptive(ap AdaptiveSpec, opt EngineOptions) (AdaptiveResult, error) {
	return engine.RunAdaptive(ap, opt)
}

// AdaptivePreset returns a fresh copy of a named registry adaptive sweep.
func AdaptivePreset(name string) (AdaptiveSpec, error) { return engine.AdaptivePreset(name) }

// AdaptivePresets lists the registry's adaptive sweep preset names.
func AdaptivePresets() []string { return engine.AdaptivePresets() }

// AdaptiveObjectives lists the aggregate field paths an adaptive search
// may optimize (e.g. "latency.mean", "bound_ratio").
func AdaptiveObjectives() []string { return engine.ObjectiveNames() }

// RenderAdaptiveTable renders an adaptive result as a refinement-trace
// table with the final brackets and convergence verdict.
func RenderAdaptiveTable(res AdaptiveResult) string {
	return engine.RenderAdaptiveTable(res)
}

// WriteAdaptiveJSON emits an adaptive refinement trace as deterministic,
// indented JSON.
func WriteAdaptiveJSON(w io.Writer, res AdaptiveResult) error {
	return engine.WriteAdaptiveJSON(w, res)
}

// ScenarioPreset returns a fresh copy of a named registry scenario.
func ScenarioPreset(name string) (Scenario, error) { return engine.Preset(name) }

// ScenarioPresets lists the registry's preset names.
func ScenarioPresets() []string { return engine.Presets() }

// ScenarioSuites lists the registry's suite names.
func ScenarioSuites() []string { return engine.Suites() }

// SuiteScenarios returns fresh copies of a named suite's scenarios.
func SuiteScenarios(name string) ([]Scenario, error) { return engine.Suite(name) }

// RenderScenarioTable renders aggregates as an aligned text table.
func RenderScenarioTable(results []ScenarioResult) string {
	return engine.RenderTable(results)
}

// RenderScenarioCDF renders pooled latency CDFs as an ASCII plot.
func RenderScenarioCDF(results []ScenarioResult) string {
	return engine.RenderCDF(results)
}

// RenderScenarioChannels renders the per-channel breakdown of
// multi-channel results — discovery shares, the multi-node kinds'
// per-channel transmission/collision columns, and the exact branch
// analysis — or "" when none carries one.
func RenderScenarioChannels(results []ScenarioResult) string {
	return engine.RenderChannels(results)
}

// WriteScenarioJSON emits results as deterministic, indented JSON.
func WriteScenarioJSON(w io.Writer, res SuiteResult) error {
	return engine.WriteJSON(w, res)
}

// RenderRunMetrics renders a run's execution record as a short multi-line
// summary (totals, throughput, worker utilization, cache traffic,
// aggregation split and peak accumulator memory).
func RenderRunMetrics(m RunMetrics) string {
	return engine.RenderRunMetrics(m)
}
