// Command benchmark is the repository's end-to-end, layer-by-layer
// benchmark. One invocation runs one named workload from a seed for a fixed
// measuring time, verifies every output from outside the program, and
// prints the workload's metrics: end-to-end metrics when untraced, and
// per-layer metrics from spans the benchmark records around its own calls
// into each layer when traced. See README.md for the workloads, the metric
// map, and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds float64
	nproc   int
	tr      *tracer // records spans only in the traced run
	log     io.Writer
}

func (e *env) traced() bool { return e.tr.on }

// workload runs one workload and reports what it measured. An error means
// the workload no longer exercises what it claims (or could not run at
// all); verification mismatches are counted in the report instead.
type workload struct {
	why string
	run func(e *env) (*report, error)
}

var workloads = map[string]workload{
	"cold-design": {"every point a build-cache miss: schedule construction, exact analysis and the prepare barrier dominate", runCold},
	"warm-mc":     {"warm builds, Monte-Carlo trials and aggregation (pooled and streamed) dominate", runWarm},
	"ndd-mixed":   {"the daemon over loopback HTTP: queueing, SSE and the result cache around small jobs", runNDD},
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"points_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Per-op values average over every
// attempted op (ndd-mixed: every job, cache hits included); a layer a
// workload never reaches reads 0.
var perLayer = []metricDef{
	{"schedule.build_ms", "ms"},
	{"coverage.analyze_ms", "ms"},
	{"coverage.calls", "count"},
	{"coverage.alloc_mb", "MB"},
	{"multichannel.analyze_ms", "ms"},
	{"slots.analyze_ms", "ms"},
	{"analysis.wall_share", "ratio"},
	{"engine.run_ms", "ms"},
	{"engine.worker_busy", "ratio"},
	{"engine.build_cache_misses", "count"},
	{"engine.build_cache_hits", "count"},
	{"engine.peak_accum_mb", "MB"},
	{"engine.streamed_points", "count"},
	{"engine.pooled_points", "count"},
	{"engine.unattributed_ms", "ms"},
	{"sim.pair_ns_per_trial", "ns"},
	{"sim.mcpair_ns_per_trial", "ns"},
	{"sim.slotgrid_ns_per_trial", "ns"},
	{"sim.group_ns_per_trial", "ns"},
	{"sim.mcgroup_ns_per_trial", "ns"},
	{"sim.churn_ns_per_trial", "ns"},
	{"sim.allocs_per_trial", "count"},
	{"report.encode_ms", "ms"},
	{"report.bytes", "bytes"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.sse_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.result_bytes", "bytes"},
	{"server.cache_hits", "count"},
	{"server.sse_events", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: *seconds,
		nproc:   runtime.NumCPU(),
		tr:      newTracer(*trace == 1),
		log:     stderr,
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if e.traced() {
		if err := writeSpans(filepath.Join(".bench_build", "spans-"+*name+".jsonl"), e.tr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}

	metrics := rep.endToEnd()
	defs := endToEnd
	if e.traced() {
		metrics = rep.layers
		defs = perLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(stdout, "workload %s (%s)\nseed %d, nproc %d, traced %t\n", *name, w.why, e.seed, e.nproc, e.traced())
	fmt.Fprintf(stdout, "%-28s %14.6f ms (n=%d)\n", "job_ms_p10", quantile(rep.opMS, 0.1), len(rep.opMS))
	fmt.Fprintf(stdout, "%-28s %14.6f ms (n=%d)\n", "job_ms_p90", quantile(rep.opMS, 0.9), len(rep.opMS))
	for _, line := range rep.summary {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%-28s %14.6f %s\n", "error_rate", float64(rep.failed)/float64(rep.attempted), "ratio")
	for _, d := range defs {
		v := metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %14.6f %s\n", d.name, v, d.unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d ops failed verification\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// writeSpans writes every recorded span as JSON lines to path.
func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONLines(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// report is what one workload run measured.
type report struct {
	attempted, failed int

	setupS  []float64 // every set-up repetition
	opMS    []float64 // every op's latency
	windowS float64   // the throughput denominator: time spent in ops (or the closed loop's wall)
	points  int64
	trials  int64

	// rssMB is each op's peak resident set (the closed loop's, for the
	// daemon), sampled while it runs.
	rssMB []float64

	layers  map[string]float64 // traced run only
	summary []string           // extra human-readable lines
}

// fail counts one op that failed or mis-verified and logs why.
func (r *report) fail(log io.Writer, err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(log, "benchmark: verification: %v\n", err)
	}
}

func (r *report) endToEnd() map[string]float64 {
	w := r.windowS
	return map[string]float64{
		"setup_s":      median(r.setupS),
		"points_per_s": float64(r.points) / w,
		"trials_per_s": float64(r.trials) / w,
		"jobs_per_s":   float64(len(r.opMS)) / w,
		"job_ms_p50":   median(r.opMS),
		"peak_rss_mb":  median(r.rssMB),
	}
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 7

// timeSetups runs set-up setupRepeats times, records every repetition's
// duration, and returns the last one's state. A non-nil reset runs untimed
// before every repetition.
func timeSetups[T any](r *report, reset func(rep int) error, setup func(rep int) (T, error)) (T, error) {
	var st T
	for rep := 0; rep < setupRepeats; rep++ {
		if reset != nil {
			if err := reset(rep); err != nil {
				return st, fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		s, err := setup(rep)
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		st = s
	}
	return st, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
