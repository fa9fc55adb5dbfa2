// Command ndscen is the batch experiment runner: it executes declarative
// neighbor-discovery scenarios — registry presets, named suites, parameter
// sweeps, or specs loaded from a JSON file — sharding Monte-Carlo trials
// across one shared worker pool, and reports aggregate results as a text
// table, optional ASCII CDF plot, and deterministic JSON. Multi-channel
// scenarios additionally get a per-channel table: discovery shares, the
// multi-node kinds' per-channel transmission and collision columns
// (tx/coll%), and the exact branch-entry analysis.
//
// Results are bit-identical for any -workers value: every trial runs on
// its own RNG stream derived from the scenario's identity hash and the
// trial index, and aggregation folds trials into order-insensitive integer
// accumulators. Points expecting more than ~262k latency samples are
// quantized automatically: their quantiles and CDF are reported at bin
// resolution ("streamed" and "quantile_resolution" in the JSON).
//
// -exact (or "exact": true in a spec) answers scenarios from the exact
// schedule analysis instead of running any trials: deterministic
// quiet-channel pair questions return the analysis's worst/mean latency and
// bound ratio directly, flagged "exact_mode" in the JSON; stochastic
// scenarios (crowds, churn, channel models, lossy schedules) are rejected
// with an explanation rather than silently approximated.
//
// Adaptive sweeps (-adaptive) search the parameter space coarse-to-fine
// instead of on a fixed grid: a coarse pass, then refinement rounds that
// bracket the best objective value seen so far, reported as a
// refinement-trace table.
//
// Every run records a RunMetrics document — wall time, trials/sec, worker
// utilization, build-cache traffic, aggregation paths — rendered as a
// summary block after the tables and carried in the -out JSON under
// "runtime" (outside the determinism contract: the deterministic content
// is still byte-identical across -workers values). -progress streams a
// live ticker to stderr, and -cpuprofile/-memprofile/-trace capture
// standard Go profiles of the run.
//
// Sharded execution (-shard k/n -snapshot f.json) runs only trial-range
// shard k of n and writes the run's accumulator state as a versioned
// ndshard/2 snapshot instead of results; -merge a.json b.json ... merges a
// complete shard set into the final document, byte-identical (after
// -strip) to the unsharded run. Adaptive searches shard round by round:
// each merge either finishes the search or writes a continuation snapshot
// (-snapshot) that the next round's shards consume via -resume. -journal
// dir makes suite and sweep runs crash-resumable: every completed point's
// snapshot is persisted, and re-running the same job re-executes only the
// missing points.
//
// Usage:
//
//	ndscen -list
//	ndscen -suite paper-fig7 -workers 8 -out results.json
//	ndscen -scenario quickstart,sensornet -plot
//	ndscen -sweep sweep-eta -exact -out eta-exact.json
//	ndscen -sweep sweep-eta -out eta.json
//	ndscen -adaptive adaptive-eta -out eta-refined.json
//	ndscen -spec myscenarios.json -trials 100
//	ndscen -sweep sweep-density -progress -cpuprofile cpu.out
//	ndscen -sweep sweep-density -shard 1/3 -snapshot shard1.json
//	ndscen -merge -strip -out merged.json shard1.json shard2.json shard3.json
//	ndscen -adaptive adaptive-eta -shard 2/3 -resume cont.json -snapshot shard2.json
//	ndscen -sweep sweep-density -journal /tmp/density-job -out density.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/strictjson"
)

func main() {
	var (
		suite    = flag.String("suite", "", "run a named suite (see -list)")
		scenario = flag.String("scenario", "", "run comma-separated presets (see -list)")
		spec     = flag.String("spec", "", "run scenarios from a JSON file ([]Scenario or {\"scenarios\": [...]})")
		sweep    = flag.String("sweep", "", "run a named sweep preset or a SweepSpec JSON file (see -list)")
		adaptive = flag.String("adaptive", "", "run a named adaptive sweep preset or an AdaptiveSpec JSON file (see -list)")
		list     = flag.Bool("list", false, "list presets, suites and sweeps, then exit")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		trials   = flag.Int("trials", 0, "override every scenario's trial count")
		exact    = flag.Bool("exact", false, "answer every scenario from the exact schedule analysis (no trials; deterministic quiet-channel pairs only)")
		out      = flag.String("out", "", "write JSON results to this file (\"-\" = stdout)")
		plot     = flag.Bool("plot", false, "render the latency CDFs as an ASCII plot")
		quiet    = flag.Bool("quiet", false, "suppress the text table and metrics summary")
		progress = flag.Bool("progress", false, "stream a progress ticker to stderr while trials run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut = flag.String("trace", "", "write a runtime execution trace to this file")
		shard    = flag.String("shard", "", "run only trial-range shard k/n and write an ndshard/2 snapshot (needs -snapshot)")
		snapshot = flag.String("snapshot", "", "snapshot file: the -shard output, or the continuation an adaptive -merge writes")
		merge    = flag.Bool("merge", false, "merge the snapshot files given as arguments into the final document")
		resume   = flag.String("resume", "", "adaptive continuation snapshot from the previous round's -merge (with -shard -adaptive)")
		journal  = flag.String("journal", "", "journal directory: persist per-point snapshots and resume interrupted runs")
		strip    = flag.Bool("strip", false, "strip runtime (observability) sections from the -out document")
	)
	flag.Parse()

	if *list {
		fmt.Println("Presets:")
		for _, n := range engine.Presets() {
			sc, _ := engine.Preset(n)
			fmt.Printf("  %-24s %s\n", n, sc.Description)
		}
		fmt.Println("\nSuites:")
		for _, n := range engine.Suites() {
			scenarios, _ := engine.Suite(n)
			fmt.Printf("  %-24s %d scenarios\n", n, len(scenarios))
		}
		fmt.Println("\nSweeps:")
		for _, n := range engine.SweepPresets() {
			sp, _ := engine.SweepPreset(n)
			fmt.Printf("  %-24s %d points — %s\n", n, sp.Points(), sp.Description)
		}
		fmt.Println("\nAdaptive sweeps:")
		for _, n := range engine.AdaptivePresets() {
			ap, _ := engine.AdaptivePreset(n)
			fmt.Printf("  %-24s %s %s — %s\n", n, ap.Goal, ap.Objective, ap.Description)
		}
		return
	}

	stopProfiles := startProfiles(*cpuProf, *memProf, *traceOut)
	defer stopProfiles()

	if *merge {
		if *suite != "" || *scenario != "" || *spec != "" || *sweep != "" || *adaptive != "" || *shard != "" || *journal != "" {
			fatal(fmt.Errorf("-merge takes snapshot files as arguments and combines only with -out, -snapshot, -strip, -quiet"))
		}
		runMerge(flag.Args(), *out, *snapshot, *strip, *quiet)
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q (snapshot files go with -merge)", flag.Args()))
	}
	var shardSpec engine.ShardSpec
	if *shard != "" {
		var err error
		shardSpec, err = engine.ParseShard(*shard)
		if err != nil {
			fatal(err)
		}
		if *snapshot == "" {
			fatal(fmt.Errorf("-shard needs -snapshot to write the shard's accumulator state"))
		}
		if *journal != "" {
			fatal(fmt.Errorf("-shard and -journal are mutually exclusive (shards merge, journals resume)"))
		}
	}
	if *resume != "" && (*shard == "" || *adaptive == "") {
		fatal(fmt.Errorf("-resume continues an adaptive shard round: it needs -shard and -adaptive"))
	}

	var metrics obs.RunMetrics
	opt := engine.Options{
		Workers: *workers, Trials: *trials, Exact: *exact,
		Metrics: &metrics,
	}
	if *progress {
		opt.Progress = progressPrinter()
	}

	if *sweep != "" || *adaptive != "" {
		if *suite != "" || *scenario != "" || *spec != "" || (*sweep != "" && *adaptive != "") {
			fatal(fmt.Errorf("pass only one of -suite, -scenario, -spec, -sweep, -adaptive"))
		}
		if *adaptive != "" {
			if *journal != "" {
				fatal(fmt.Errorf("-journal supports -suite/-scenario/-spec/-sweep runs; adaptive searches shard round by round instead"))
			}
			if *shard != "" {
				runAdaptiveShard(*adaptive, shardSpec, *resume, opt, *snapshot, *out, *strip, *quiet)
			} else {
				runAdaptive(*adaptive, opt, *out, *quiet, *strip)
			}
		} else if *shard != "" {
			runSweepShard(*sweep, shardSpec, opt, *snapshot)
		} else {
			runSweep(*sweep, opt, *out, *plot, *quiet, *strip, *journal)
		}
		return
	}

	scenarios, label, err := collect(*suite, *scenario, *spec)
	if err != nil {
		fatal(err)
	}
	if len(scenarios) == 0 {
		fatal(fmt.Errorf("nothing to run: pass -suite, -scenario, -spec, -sweep or -adaptive (or -list)"))
	}

	if *shard != "" {
		snap, err := engine.RunScenariosShard(label, scenarios, shardSpec, opt)
		if err != nil {
			fatal(err)
		}
		exitLine(fmt.Sprintf("shard %s of %d scenarios", shardSpec, len(scenarios)), metrics)
		writeShardSnapshot(*snapshot, snap)
		return
	}

	var aggs []engine.Aggregate
	if *journal != "" {
		aggs, err = engine.RunJournaled(label, scenarios, opt, *journal)
	} else {
		aggs, err = engine.RunSuite(scenarios, opt)
	}
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Print(engine.RenderTable(aggs))
		if ch := engine.RenderChannels(aggs); ch != "" {
			fmt.Println()
			fmt.Print(ch)
		}
	}
	if *plot {
		fmt.Println()
		fmt.Print(engine.RenderCDF(aggs))
	}
	summarize(metrics, *quiet)
	exitLine(fmt.Sprintf("%d scenarios", len(aggs)), metrics)

	res := engine.SuiteResult{Suite: label, Scenarios: aggs, Runtime: &metrics}
	if *strip {
		res.StripRuntime()
	}
	writeResult(*out, res)
}

// runMerge reads a complete shard-snapshot set and merges it: suite and
// sweep sets produce the final document; adaptive sets either finish the
// search or write the next round's continuation snapshot.
func runMerge(files []string, out, snapshot string, strip, quiet bool) {
	if len(files) == 0 {
		fatal(fmt.Errorf("-merge needs at least one snapshot file argument"))
	}
	snaps := make([]engine.Snapshot, len(files))
	for i, f := range files {
		s, err := engine.ReadSnapshotFile(f)
		if err != nil {
			fatal(err)
		}
		snaps[i] = s
	}
	if snaps[0].Kind == engine.SnapshotAdaptive {
		res, cont, err := engine.MergeAdaptiveSnapshots(snaps)
		if err != nil {
			fatal(err)
		}
		if cont != nil {
			if snapshot == "" {
				fatal(fmt.Errorf("adaptive search %q needs another shard round: pass -snapshot to write the continuation", cont.Label))
			}
			if err := engine.WriteSnapshotFile(snapshot, *cont); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "ndscen: adaptive %q needs another shard round (%d evaluations pooled); wrote continuation %s\n",
				cont.Label, len(cont.Evaluations), snapshot)
			return
		}
		if !quiet {
			fmt.Print(engine.RenderAdaptiveTable(*res))
		}
		fmt.Fprintf(os.Stderr, "ndscen: merged %d shards: adaptive %s, %d evaluations over %d rounds\n",
			len(files), res.Name, res.Evaluations, len(res.Rounds))
		if strip {
			res.StripRuntime()
		}
		writeOut(out, func(w io.Writer) error { return engine.WriteAdaptiveJSON(w, *res) })
		return
	}
	res, err := engine.MergeSnapshots(snaps)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Print(engine.RenderTable(res.Scenarios))
		if ch := engine.RenderChannels(res.Scenarios); ch != "" {
			fmt.Println()
			fmt.Print(ch)
		}
	}
	fmt.Fprintf(os.Stderr, "ndscen: merged %d shards: %d scenarios\n", len(files), len(res.Scenarios))
	if strip {
		res.StripRuntime()
	}
	writeResult(out, res)
}

// writeShardSnapshot persists a shard's snapshot — the only output a
// sharded run produces.
func writeShardSnapshot(path string, snap engine.Snapshot) {
	if err := engine.WriteSnapshotFile(path, snap); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ndscen: wrote shard %s snapshot %s (%d points)\n", snap.Shard, path, len(snap.Points))
}

// runSweepShard runs one trial-range shard of a sweep and writes its
// snapshot.
func runSweepShard(name string, shard engine.ShardSpec, opt engine.Options, snapshot string) {
	sp, err := resolveSweep(name)
	if err != nil {
		fatal(err)
	}
	snap, err := engine.RunSweepShard(sp, shard, opt)
	if err != nil {
		fatal(err)
	}
	exitLine(fmt.Sprintf("sweep %s shard %s", sp.Name, shard), *opt.Metrics)
	writeShardSnapshot(snapshot, snap)
}

// runAdaptiveShard runs one trial-range shard of the current adaptive
// round: it replays the search against the -resume continuation's pooled
// evaluations and runs this shard's slice of the first pending round. When
// the pool already completes the search there is nothing left to shard and
// the final trace is reported directly.
func runAdaptiveShard(name string, shard engine.ShardSpec, resume string, opt engine.Options, snapshot, out string, strip, quiet bool) {
	ap, err := resolveAdaptive(name)
	if err != nil {
		fatal(err)
	}
	var prior *engine.Snapshot
	if resume != "" {
		s, err := engine.ReadSnapshotFile(resume)
		if err != nil {
			fatal(err)
		}
		prior = &s
	}
	snap, res, err := engine.RunAdaptiveShard(ap, shard, prior, opt)
	if err != nil {
		fatal(err)
	}
	if res != nil {
		if !quiet {
			fmt.Print(engine.RenderAdaptiveTable(*res))
		}
		fmt.Fprintf(os.Stderr, "ndscen: adaptive %s already complete from pooled evaluations\n", res.Name)
		if strip {
			res.StripRuntime()
		}
		writeOut(out, func(w io.Writer) error { return engine.WriteAdaptiveJSON(w, *res) })
		return
	}
	exitLine(fmt.Sprintf("adaptive %s shard %s: %d pending points", ap.Name, shard, len(snap.Points)), *opt.Metrics)
	writeShardSnapshot(snapshot, *snap)
}

// runSweep resolves (registry name, else SweepSpec JSON file), expands and
// runs the sweep — through the resumable journal when -journal names a
// directory — and reports one row per grid point.
func runSweep(name string, opt engine.Options, out string, plot, quiet, strip bool, journal string) {
	sp, err := resolveSweep(name)
	if err != nil {
		fatal(err)
	}
	var aggs []engine.Aggregate
	if journal != "" {
		scenarios, err := sp.Expand()
		if err != nil {
			fatal(err)
		}
		aggs, err = engine.RunJournaled(sp.Name, scenarios, opt, journal)
		if err != nil {
			fatal(err)
		}
	} else {
		aggs, err = engine.RunSweep(sp, opt)
		if err != nil {
			fatal(err)
		}
	}

	if !quiet {
		fmt.Print(engine.RenderSweepTable(sp, aggs))
		if ch := engine.RenderChannels(aggs); ch != "" {
			fmt.Println()
			fmt.Print(ch)
		}
	}
	if plot {
		fmt.Println()
		fmt.Print(engine.RenderCDF(aggs))
	}
	summarize(*opt.Metrics, quiet)
	exitLine(fmt.Sprintf("sweep %s: %d points", sp.Name, len(aggs)), *opt.Metrics)

	res := engine.SuiteResult{Suite: sp.Name, Scenarios: aggs, Runtime: opt.Metrics}
	if strip {
		res.StripRuntime()
	}
	writeResult(out, res)
}

// runAdaptive resolves (registry name, else AdaptiveSpec JSON file), runs
// the coarse-to-fine search, and reports the refinement trace.
func runAdaptive(name string, opt engine.Options, out string, quiet, strip bool) {
	ap, err := resolveAdaptive(name)
	if err != nil {
		fatal(err)
	}
	res, err := engine.RunAdaptive(ap, opt)
	if err != nil {
		fatal(err)
	}

	if !quiet {
		fmt.Print(engine.RenderAdaptiveTable(res))
	}
	summarize(*opt.Metrics, quiet)
	exitLine(fmt.Sprintf("adaptive %s: %d evaluations over %d rounds",
		res.Name, res.Evaluations, len(res.Rounds)), *opt.Metrics)

	if strip {
		res.StripRuntime()
	}
	writeOut(out, func(w io.Writer) error { return engine.WriteAdaptiveJSON(w, res) })
}

// summarize prints the metrics summary block after the tables (suppressed
// by -quiet, like the tables themselves).
func summarize(m obs.RunMetrics, quiet bool) {
	if quiet {
		return
	}
	fmt.Println()
	fmt.Print(engine.RenderRunMetrics(m))
}

// exitLine is the always-on stderr closing line: what ran, the total wall
// time, the throughput, and the worker count actually used — straight
// from the run's RunMetrics record.
func exitLine(what string, m obs.RunMetrics) {
	wall := time.Duration(m.WallMS * float64(time.Millisecond)).Round(time.Millisecond)
	fmt.Fprintf(os.Stderr, "ndscen: %s, %d trials in %v — %.0f trials/s, %d workers\n",
		what, m.Trials, wall, m.TrialsPerSec, m.Workers)
}

// progressPrinter renders Progress snapshots on stderr: in-place updates
// when stderr is a terminal, one line per snapshot otherwise (so logs
// redirected to a file stay readable). Safe alongside -out: progress goes
// to stderr, results to stdout or the -out file.
func progressPrinter() func(obs.Progress) {
	tty := false
	if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		tty = true
	}
	return func(p obs.Progress) {
		if tty {
			fmt.Fprintf(os.Stderr, "\r\x1b[Kndscen: %s", p)
			if p.Final {
				fmt.Fprintln(os.Stderr)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "ndscen: %s\n", p)
	}
}

// profileStop holds the active profiling teardown so fatal() can flush
// profiles before exiting — a run that dies mid-sweep still leaves a
// valid CPU profile and trace behind.
var profileStop = func() {}

// startProfiles arms the requested profilers and returns (and registers)
// the idempotent teardown. The heap profile is written at teardown, after
// a GC, so it reflects live state rather than transient garbage.
func startProfiles(cpu, mem, traceFile string) func() {
	var stops []func()
	create := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		return f
	}
	if cpu != "" {
		f := create(cpu)
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceFile != "" {
		f := create(traceFile)
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		f := create(mem)
		stops = append(stops, func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ndscen: writing heap profile: %v\n", err)
			}
			f.Close()
		})
	}
	done := false
	profileStop = func() {
		if done {
			return
		}
		done = true
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	return profileStop
}

func resolveAdaptive(name string) (engine.AdaptiveSpec, error) {
	return resolveSpecArg(name, "adaptive sweep spec", engine.AdaptivePreset)
}

func resolveSweep(name string) (engine.SweepSpec, error) {
	return resolveSpecArg(name, "sweep spec", engine.SweepPreset)
}

// resolveSpecArg resolves a -sweep/-adaptive argument: a registry preset
// name first, else a strict JSON spec file (unknown keys and trailing data
// rejected, like -spec files).
func resolveSpecArg[T any](name, what string, preset func(string) (T, error)) (T, error) {
	var zero T
	sp, err := preset(name)
	if err == nil {
		return sp, nil
	}
	blob, ferr := os.ReadFile(name)
	if ferr != nil {
		if os.IsNotExist(ferr) {
			// Not a preset and no such file: the preset error (which
			// lists the valid names) is the useful one.
			return zero, err
		}
		return zero, fmt.Errorf("%v; reading it as a %s file also failed: %w", err, what, ferr)
	}
	var fromFile T
	if jerr := strictjson.Decode(bytes.NewReader(blob), &fromFile); jerr != nil {
		return zero, fmt.Errorf("parsing %s %s: %w", what, name, jerr)
	}
	return fromFile, nil
}

func writeResult(out string, res engine.SuiteResult) {
	writeOut(out, func(w io.Writer) error { return engine.WriteJSON(w, res) })
}

// writeOut routes a JSON document to -out: nowhere, stdout ("-"), or a file.
func writeOut(out string, write func(io.Writer) error) {
	if out == "" {
		return
	}
	if out == "-" {
		if err := write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ndscen: wrote %s\n", out)
}

// collect resolves the three scenario-list sources; exactly one may be used.
func collect(suite, scenario, spec string) ([]engine.Scenario, string, error) {
	set := 0
	for _, s := range []string{suite, scenario, spec} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return nil, "", fmt.Errorf("pass only one of -suite, -scenario, -spec, -sweep, -adaptive")
	}
	switch {
	case suite != "":
		scenarios, err := engine.Suite(suite)
		return scenarios, suite, err
	case scenario != "":
		var out []engine.Scenario
		for _, name := range strings.Split(scenario, ",") {
			sc, err := engine.Preset(strings.TrimSpace(name))
			if err != nil {
				return nil, "", err
			}
			out = append(out, sc)
		}
		return out, scenario, nil
	case spec != "":
		blob, err := os.ReadFile(spec)
		if err != nil {
			return nil, "", err
		}
		scenarios, err := parseSpec(spec, blob)
		return scenarios, spec, err
	}
	return nil, "", nil
}

// parseSpec accepts either a bare scenario array or a {"scenarios": [...]}
// document (a "suite" key is tolerated, matching the shape ndscen itself
// emits). Unknown keys are rejected — a typo'd "scenarioz" must not parse
// as an empty document — empty documents are errors, and when neither
// shape parses, both errors are reported (so an array with a broken
// element isn't masked by the unhelpful "cannot unmarshal array into
// object" of the fallback).
func parseSpec(path string, blob []byte) ([]engine.Scenario, error) {
	strict := func(v any) error { return strictjson.Decode(bytes.NewReader(blob), v) }
	var arr []engine.Scenario
	arrErr := strict(&arr)
	if arrErr == nil {
		if len(arr) == 0 {
			return nil, fmt.Errorf("parsing %s: empty scenario list", path)
		}
		return arr, nil
	}
	var doc struct {
		Suite     string            `json:"suite"`
		Scenarios []engine.Scenario `json:"scenarios"`
	}
	if docErr := strict(&doc); docErr != nil {
		return nil, fmt.Errorf("parsing %s: not a scenario array (%v) and not a {\"scenarios\": [...]} document (%v)", path, arrErr, docErr)
	}
	if len(doc.Scenarios) == 0 {
		return nil, fmt.Errorf("parsing %s: document has no scenarios (is the \"scenarios\" key present and non-empty?)", path)
	}
	return doc.Scenarios, nil
}

func fatal(err error) {
	profileStop()
	fmt.Fprintf(os.Stderr, "ndscen: %v\n", err)
	os.Exit(1)
}
