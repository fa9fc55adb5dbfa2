package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/textplot"
	"repro/internal/timebase"
)

// SuiteResult is the JSON document ndscen emits: the suite name and one
// aggregate per scenario, in suite order. Its deterministic content is
// byte-identical across worker counts and parallelism; the runtime
// sections (the suite-level RunMetrics here and each aggregate's
// PointMetrics) are the deliberate exception — observability data that
// legitimately differs run to run, and therefore structurally excluded
// from golden comparison via StripRuntime.
type SuiteResult struct {
	Suite     string          `json:"suite,omitempty"`
	Scenarios []Aggregate     `json:"scenarios"`
	Runtime   *obs.RunMetrics `json:"runtime,omitempty"`
}

// StripRuntime removes every runtime (observability) section from the
// result, leaving exactly the deterministic content the golden harness
// pins and the worker-invariance contract speaks about.
func (r *SuiteResult) StripRuntime() {
	r.Runtime = nil
	for i := range r.Scenarios {
		r.Scenarios[i].Runtime = nil
	}
}

// StripRuntime removes every runtime section from the adaptive trace: the
// accumulated run record plus each evaluated point's metrics.
func (r *AdaptiveResult) StripRuntime() {
	r.Runtime = nil
	if r.Best.Aggregate != nil {
		r.Best.Aggregate.Runtime = nil
	}
	for ri := range r.Rounds {
		rd := &r.Rounds[ri]
		if rd.Best.Aggregate != nil {
			rd.Best.Aggregate.Runtime = nil
		}
		for pi := range rd.Points {
			if a := rd.Points[pi].Aggregate; a != nil {
				a.Runtime = nil
			}
		}
	}
}

// WriteJSON emits the result as deterministic, indented JSON.
func WriteJSON(w io.Writer, res SuiteResult) error {
	return writeIndentedJSON(w, res)
}

// WriteAdaptiveJSON emits an adaptive refinement trace as deterministic,
// indented JSON — the same encoding the golden harness pins.
func WriteAdaptiveJSON(w io.Writer, res AdaptiveResult) error {
	return writeIndentedJSON(w, res)
}

func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// seconds renders a tick quantity in seconds with sensible precision.
func seconds(ticks float64) string {
	return fmt.Sprintf("%.4g", ticks/float64(timebase.Second))
}

// RenderTable renders one row per aggregate: duty-cycles, exact facts,
// Monte-Carlo latency stats, failure and collision rates.
func RenderTable(aggs []Aggregate) string {
	t := textplot.NewTable(
		"scenario", "protocol", "S", "trials", "η_E", "η_F",
		"worst[s]", "bound[s]", "ratio", "mean[s]", "p50[s]", "p95[s]", "p99[s]",
		"fail%", "coll%")
	for _, a := range aggs {
		worst := "—"
		if a.Deterministic {
			worst = seconds(float64(a.ExactWorst))
		}
		bound, ratio := "—", "—"
		if a.Bound > 0 {
			bound = seconds(a.Bound)
			if a.BoundRatio > 0 {
				ratio = fmt.Sprintf("%.3f", a.BoundRatio)
			}
		}
		t.Add(
			a.Scenario.Name, a.Scenario.Protocol.Kind,
			fmt.Sprintf("%d", a.Scenario.Population),
			fmt.Sprintf("%d", a.Trials),
			fmt.Sprintf("%.4f", a.EtaE), fmt.Sprintf("%.4f", a.EtaF),
			worst, bound, ratio,
			seconds(a.Latency.Mean),
			seconds(float64(a.Latency.P50)),
			seconds(float64(a.Latency.P95)),
			seconds(float64(a.Latency.P99)),
			fmt.Sprintf("%.2f", a.FailureRate*100),
			fmt.Sprintf("%.2f", a.CollisionRate*100),
		)
	}
	return t.String()
}

// RenderSweepTable renders one row per grid point with the sweep's axis
// values as leading columns, followed by the standard metrics. The
// aggregates must be in grid order, as RunSweep returns them.
func RenderSweepTable(sp SweepSpec, aggs []Aggregate) string {
	// The ms column appears only when the aggregates carry runtime
	// records; rendering a runtime-stripped result (ndscen -q) omits it.
	withMS := false
	for _, a := range aggs {
		if a.Runtime != nil {
			withMS = true
			break
		}
	}
	cols := make([]string, 0, len(sp.Axes)+10)
	for _, ax := range sp.Axes {
		cols = append(cols, axisLabel(ax.Field))
	}
	cols = append(cols,
		"worst[s]", "bound[s]", "ratio", "mean[s]", "p50[s]", "p95[s]", "p99[s]",
		"fail%", "coll%")
	if withMS {
		cols = append(cols, "ms")
	}
	t := textplot.NewTable(cols...)
	grid := sp.grid()
	for i, a := range aggs {
		row := make([]string, 0, len(cols))
		for _, v := range grid[i] {
			row = append(row, formatAxisValue(v))
		}
		worst := "—"
		if a.Deterministic {
			worst = seconds(float64(a.ExactWorst))
		}
		bound, ratio := "—", "—"
		if a.Bound > 0 {
			bound = seconds(a.Bound)
			if a.BoundRatio > 0 {
				ratio = fmt.Sprintf("%.3f", a.BoundRatio)
			}
		}
		row = append(row,
			worst, bound, ratio,
			seconds(a.Latency.Mean),
			seconds(float64(a.Latency.P50)),
			seconds(float64(a.Latency.P95)),
			seconds(float64(a.Latency.P99)),
			fmt.Sprintf("%.2f", a.FailureRate*100),
			fmt.Sprintf("%.2f", a.CollisionRate*100),
		)
		if withMS {
			row = append(row, pointMS(a.Runtime))
		}
		t.Add(row...)
	}
	return t.String()
}

// pointMS renders one aggregate's wall time for the ms table column.
func pointMS(m *obs.PointMetrics) string {
	if m == nil {
		return "—"
	}
	return fmt.Sprintf("%.1f", m.WallMS)
}

// RenderAdaptiveTable renders an adaptive search as a refinement-trace
// table — one row per evaluated point in evaluation order, with its round,
// axis coordinates, objective value, and a marker on the overall best —
// followed by the final per-axis brackets and the convergence verdict.
func RenderAdaptiveTable(res AdaptiveResult) string {
	if len(res.Rounds) == 0 {
		return "(empty adaptive trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive %s: %s %s, tolerance %g (%d evaluations)\n",
		res.Name, res.Goal, res.Objective, res.Tolerance, res.Evaluations)

	// As in RenderSweepTable: per-point timing appears only when the
	// trace carries runtime records (stripped under ndscen -q).
	withMS := false
	for _, r := range res.Rounds {
		for _, pt := range r.Points {
			if pt.Aggregate != nil && pt.Aggregate.Runtime != nil {
				withMS = true
			}
		}
	}
	cols := []string{"round"}
	if len(res.Rounds) > 0 {
		for _, br := range res.Rounds[0].Brackets {
			cols = append(cols, axisLabel(br.Field))
		}
	}
	cols = append(cols, res.Objective)
	if withMS {
		cols = append(cols, "ms")
	}
	cols = append(cols, "best")
	t := textplot.NewTable(cols...)
	for _, r := range res.Rounds {
		for _, pt := range r.Points {
			row := make([]string, 0, len(cols))
			row = append(row, fmt.Sprintf("%d", pt.Round))
			for _, v := range pt.Values {
				row = append(row, formatAxisValue(v))
			}
			marker := ""
			if pt.Name == res.Best.Name {
				marker = "*"
			}
			row = append(row, formatObjective(pt.Objective))
			if withMS {
				ms := "—"
				if pt.Aggregate != nil {
					ms = pointMS(pt.Aggregate.Runtime)
				}
				row = append(row, ms)
			}
			row = append(row, marker)
			t.Add(row...)
		}
	}
	b.WriteString(t.String())

	last := res.Rounds[len(res.Rounds)-1]
	for _, br := range last.Brackets {
		state := "open"
		if br.Converged {
			state = "converged"
		}
		fmt.Fprintf(&b, "bracket %s ∈ [%s, %s]  width %.2f%% of span  (%s)\n",
			axisLabel(br.Field), formatAxisValue(br.Lo), formatAxisValue(br.Hi),
			br.RelWidth*100, state)
	}
	verdict := "stopped before convergence (raise rounds or budget, or loosen tolerance)"
	if res.Converged {
		verdict = fmt.Sprintf("converged after %d refinement rounds", len(res.Rounds)-1)
	}
	fmt.Fprintf(&b, "best %s: %s = %s — %s\n",
		res.Best.Name, res.Objective, formatObjective(res.Best.Objective), verdict)
	return b.String()
}

func formatObjective(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}

// RenderChannels renders the per-channel breakdown of multi-channel
// aggregates — Monte-Carlo discovery share by advertising channel next to
// the exact branch-entry analysis, plus the per-channel traffic and
// collision accounting of the multi-node kinds — or "" when no aggregate
// carries one.
func RenderChannels(aggs []Aggregate) string {
	t := textplot.NewTable(
		"scenario", "ch", "entry%", "covered", "worst[s]", "mean[s]", "disc", "disc%", "tx", "coll%")
	any := false
	for _, a := range aggs {
		for _, c := range a.PerChannel {
			any = true
			tx, coll := "—", "—"
			if c.Transmissions > 0 {
				tx = fmt.Sprintf("%d", c.Transmissions)
				coll = fmt.Sprintf("%.2f", c.CollisionRate*100)
			}
			t.Add(
				a.Scenario.Name,
				fmt.Sprintf("%d", c.Channel),
				fmt.Sprintf("%.2f", c.EntryProb*100),
				fmt.Sprintf("%.4f", c.BranchCovered),
				seconds(float64(c.BranchWorst)),
				seconds(c.BranchMean),
				fmt.Sprintf("%d", c.Discoveries),
				fmt.Sprintf("%.2f", c.Fraction*100),
				tx, coll,
			)
		}
	}
	if !any {
		return ""
	}
	return "Per-channel (multi-channel kinds; entry/covered/worst/mean are exact branch analysis,\ntx/coll% the per-channel packet traffic of the multi-node kinds):\n" + t.String()
}

// cdfMarkers cycles through distinguishable plot markers.
var cdfMarkers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// RenderCDF renders the pooled discovery-latency CDFs of the aggregates as
// one ASCII plot (fraction discovered vs latency in seconds).
func RenderCDF(aggs []Aggregate) string {
	p := textplot.Plot{
		Title:  "Discovery latency CDF",
		XLabel: "latency [s]",
		YLabel: "fraction of pairs discovered",
	}
	plotted := false
	for i, a := range aggs {
		if len(a.CDF) == 0 {
			continue
		}
		xs := make([]float64, len(a.CDF))
		ys := make([]float64, len(a.CDF))
		for j, pt := range a.CDF {
			xs[j] = pt.Latency.Seconds()
			ys[j] = pt.Fraction
		}
		p.AddSeries(a.Scenario.Name, cdfMarkers[i%len(cdfMarkers)], xs, ys)
		plotted = true
	}
	if !plotted {
		return "(no latency samples to plot)\n"
	}
	return p.String()
}

// RenderRunMetrics renders the run's metrics record as the multi-line
// summary ndscen prints after its tables: headline throughput, worker
// utilization, build-cache traffic, and the aggregation-path split.
func RenderRunMetrics(m obs.RunMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime: %d points, %d trials in %.3fs — %.0f trials/s, %d workers\n",
		m.Points, m.Trials, m.WallMS/1000, m.TrialsPerSec, m.Workers)
	if len(m.WorkerBusy) > 0 {
		parts := make([]string, len(m.WorkerBusy))
		for i, f := range m.WorkerBusy {
			parts[i] = fmt.Sprintf("%.2f", f)
		}
		fmt.Fprintf(&b, "  worker busy: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "  build cache: %d hits, %d misses, %d evictions\n",
		m.BuildCache.Hits, m.BuildCache.Misses, m.BuildCache.Evictions)
	fmt.Fprintf(&b, "  aggregation: %d quantized, %d exact-key; peak accumulator state %s\n",
		m.StreamedPoints, m.ExactPoints, formatBytes(m.PeakAccumBytes))
	if m.MemoHits > 0 {
		fmt.Fprintf(&b, "  adaptive memo: %d hits\n", m.MemoHits)
	}
	if m.ShardN > 0 {
		fmt.Fprintf(&b, "  shard: %d/%d, %d snapshot points\n", m.ShardK, m.ShardN, m.SnapshotPoints)
	}
	if m.ResumedPoints > 0 {
		fmt.Fprintf(&b, "  journal: %d points resumed, %d freshly run\n", m.ResumedPoints, m.SnapshotPoints)
	}
	if m.ResultCacheHit {
		fmt.Fprintf(&b, "  result cache: hit (no execution)\n")
	}
	if m.QueueWaitMS > 0 {
		fmt.Fprintf(&b, "  queue wait: %.3fs\n", m.QueueWaitMS/1000)
	}
	return b.String()
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
