// Command ndbench runs the repository's benchmark registry in-process and
// normalizes the testing.B output into a schema'd trajectory document
// (BENCH_<pr>.json): ns/op, allocs/op, trials/sec and a host fingerprint.
// One file per PR is committed at the repo root, so performance claims in
// PR descriptions are grounded in recorded numbers and CI can compare each
// PR against its predecessor.
//
//	go run ./cmd/ndbench -label "PR 6" -out BENCH_6.json
//	go run ./cmd/ndbench -compare BENCH_5.json -against BENCH_6.json
//	go run ./cmd/ndbench -compare BENCH_5.json            # runs live, then compares
//
// Comparison is tolerant by default (see obs.DefaultBenchTolerance):
// regressions are reported but the exit status stays zero unless -strict
// is set, because shared CI runners are noisy and the trajectory exists to
// catch order-of-magnitude drifts, not wobbles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/engine"
	"repro/internal/multichannel"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/slots"
	"repro/internal/textplot"
	"repro/internal/timebase"
)

// bench is one registry entry: a name, the Monte-Carlo trials a single op
// executes (0 for analytic kernels), and the benchmark body.
type bench struct {
	name   string
	trials int
	fn     func(b *testing.B)
}

// registry mirrors the tracked benchmarks from internal/engine/bench_test.go
// and the root paper-artifact bench suite, expressed through the same public
// entry points so the numbers measure what users run.
func registry() ([]bench, error) {
	busy, err := engine.Preset("busynetwork-jitter")
	if err != nil {
		return nil, err
	}
	busy.Name = "bench-busy"
	busy.Population = 10

	fast, err := engine.Preset("ble3-fast")
	if err != nil {
		return nil, err
	}
	crowd, err := engine.Preset("ble3-crowd")
	if err != nil {
		return nil, err
	}
	grids, err := engine.Suite("slotgrid")
	if err != nil {
		return nil, err
	}
	grid := grids[0]

	quick, err := engine.Preset("quickstart")
	if err != nil {
		return nil, err
	}

	all := runtime.GOMAXPROCS(0)
	exact := quick
	exact.Exact = true
	return []bench{
		{"EngineScenario1Worker", 32, engineBench(busy, 32, 1)},
		{"EngineScenarioAllCores", 32, engineBench(busy, 32, all)},
		{"EngineMultiChannelPair", 64, engineBench(fast, 64, all)},
		{"EngineSlotGridPair", 64, engineBench(grid, 64, all)},
		{"EngineMultiChannelGroup", 16, engineBench(crowd, 16, all)},
		// The exact-analysis fast path against its Monte-Carlo twin: the
		// same preset answered from the schedule analysis (no trials) vs
		// simulated at its registry trial count. Their ns/op ratio is the
		// exact-mode speedup the trajectory tracks.
		{"EngineExactPoint", 0, engineBench(exact, 0, all)},
		{"EngineExactPointMC", 500, engineBench(quick, 500, all)},
		// The quiet pairs the warm-mc benchmark workload streams: 2^18+1
		// trials, past the accumulator's quantization threshold, of the
		// single-channel and the multi-channel pair.
		{"EnginePairStream", streamTrials, engineBench(quick, streamTrials, all)},
		{"EngineMultiChannelPairStream", streamTrials, engineBench(fast, streamTrials, all)},
		// Every other engine row warms the build cache first; this one
		// measures the builds and exact analyses a cold design pays.
		{"EngineColdDesigns", len(coldDesigns(0)) * coldTrials, coldDesignsBench()},
		{"CoverageAnalyzeDisco2329", 0, benchCoverageDisco},
		{"CoverageAnalyzeDiscoOneWay", 0, benchCoverageDiscoOneWay},
		{"MultichannelAnalyzeBLE", 0, benchMultichannelBLE},
		{"SlotDomainWorstCase", 0, benchSlotWorstCase},
		{"SlotsAnalyzeDisco3743", 0, benchSlotsAnalyzeDisco},
	}, nil
}

// streamTrials is the trial count of the streamed pair rows.
const streamTrials = 1<<18 + 1

// engineBench measures RunScenario end to end at a fixed trial count and
// worker count. The build cache is warmed first so the loop measures
// trials, not schedule analysis.
func engineBench(sc engine.Scenario, trials, workers int) func(*testing.B) {
	return func(b *testing.B) {
		sc := sc
		sc.Trials = trials
		if _, err := engine.RunScenario(sc, engine.Options{Trials: 1}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunScenario(sc, engine.Options{Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// coldTrials is the trial count of each cold design, as in the cold-design
// benchmark workload.
const coldTrials = 64

// coldDesigns returns one design of each of the cold-design benchmark
// workload's twelve kinds, made from u ∈ [0, 2000): u sets the slot
// length, the scan window or η, so designs of distinct u never share a
// build.
func coldDesigns(u int) []engine.Scenario {
	const omega = 36 * timebase.Microsecond
	slot := 4*timebase.Millisecond + timebase.Ticks(u)
	eta := 0.020001 + 0.00002*float64(u) // off the presets' round η values
	worst := engine.HorizonSpec{WorstMultiple: 2}
	period := engine.HorizonSpec{PeriodMultiple: 3} // one-way slotted designs are not deterministic
	designs := []struct {
		p engine.ProtocolSpec
		h engine.HorizonSpec
	}{
		{engine.ProtocolSpec{Kind: "optimal", Omega: omega, Eta: eta}, worst},
		{engine.ProtocolSpec{Kind: "pi-optimal", Omega: omega, Eta: eta}, worst},
		{engine.ProtocolSpec{Kind: "asymmetric", Omega: omega, EtaE: eta / 2, EtaF: 0.075}, worst},
		{engine.ProtocolSpec{Kind: "disco", Omega: omega, P1: 37, P2: 43, SlotLen: slot}, period},
		{engine.ProtocolSpec{Kind: "uconnect", Omega: omega, P: 31, SlotLen: slot}, period},
		{engine.ProtocolSpec{Kind: "searchlight", Omega: omega, T: 16, Striped: true, SlotLen: slot}, period},
		{engine.ProtocolSpec{Kind: "diffcode", Omega: omega, Q: 7, SlotLen: slot}, period},
		{engine.ProtocolSpec{Kind: "multichannel", Omega: 128 * timebase.Microsecond,
			Ta: 20 * timebase.Millisecond, Ts: 30 * timebase.Millisecond, Ds: 15*timebase.Millisecond + timebase.Ticks(u)}, worst},
		{engine.ProtocolSpec{Kind: "slot-disco", Omega: omega, P1: 37, P2: 43, SlotLen: slot}, worst},
		{engine.ProtocolSpec{Kind: "slot-uconnect", Omega: omega, P: 31, SlotLen: slot}, worst},
		{engine.ProtocolSpec{Kind: "slot-searchlight", Omega: omega, T: 16, SlotLen: slot}, worst},
		{engine.ProtocolSpec{Kind: "slot-diffcode", Omega: omega, Q: 7, SlotLen: slot}, worst},
	}
	batch := make([]engine.Scenario, len(designs))
	for i, d := range designs {
		d.p.Alpha = 1
		batch[i] = engine.Scenario{Name: fmt.Sprintf("cold-%d-%s", u, d.p.Kind), Protocol: d.p,
			Population: 2, Trials: coldTrials, Horizon: d.h, Seed: 1}
	}
	return batch
}

// coldDesignsBench runs one op's coldDesigns through RunSuite. Its op
// counter carries across the benchmark's rounds, so every op's designs are
// new to the build cache, which holds fewer than 2000 ops' worth; an op
// that hits the cache fails the row.
func coldDesignsBench() func(*testing.B) {
	op := 0
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch := coldDesigns(op % 2000)
			op++
			var m obs.RunMetrics
			if _, err := engine.RunSuite(batch, engine.Options{Metrics: &m}); err != nil {
				b.Fatal(err)
			}
			if m.BuildCache.Misses != int64(len(batch)) {
				b.Fatalf("%d build-cache misses for %d cold designs", m.BuildCache.Misses, len(batch))
			}
		}
	}
}

// benchCoverageDisco: the exact coverage kernel on a production-scale
// Disco pair (primes 23×29: 667 slots, 102 beacons per period).
func benchCoverageDisco(b *testing.B) {
	d, err := protocols.NewDisco(23, 29, 5000, 36)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := d.DeviceFullDuplex()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.Analyze(dev.B, dev.C, coverage.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCoverageDiscoOneWay: the analysis behind the engine's "disco" kind,
// a device's half-duplex beacons against its own windows (primes 37×43,
// 4 ms slots, 36 µs packets). The pair is not deterministic, so this
// measures the coverage pass alone.
func benchCoverageDiscoOneWay(b *testing.B) {
	d, err := protocols.NewDisco(37, 43, 4*timebase.Millisecond, 36*timebase.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := d.Device()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.Analyze(dev.B, dev.C, coverage.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMultichannelBLE: the exact 3-channel BLE latency analysis on the
// continuous-scanning preset.
func benchMultichannelBLE(b *testing.B) {
	cfg := multichannel.BLE(20000, 128, 30000, 30000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multichannel.Analyze(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSlotWorstCase: the combinatorial slot-domain engine on Disco(5,7).
func benchSlotWorstCase(b *testing.B) {
	d, err := slots.Disco(5, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := slots.Symmetric(d); !ok {
			b.Fatal("not deterministic")
		}
	}
}

// benchSlotsAnalyzeDisco: the slot-domain worst/mean analysis behind the
// engine's "slot-disco" kind, on Disco(37, 43) against itself.
func benchSlotsAnalyzeDisco(b *testing.B) {
	d, err := slots.Disco(37, 43)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slots.Analyze(d, d); err != nil {
			b.Fatal(err)
		}
	}
}

// hostInfo fingerprints the machine so cross-host comparisons are visibly
// apples-to-oranges. The CPU model is best-effort (Linux only).
func hostInfo() obs.HostInfo {
	h := obs.HostInfo{
		Go:   runtime.Version(),
		OS:   runtime.GOOS,
		Arch: runtime.GOARCH,
		CPUs: runtime.NumCPU(),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok &&
				strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

// normalize converts one testing.Benchmark result into a schema row,
// deriving trials/sec for trial-running benchmarks.
func normalize(b bench, r testing.BenchmarkResult) obs.BenchResult {
	row := obs.BenchResult{
		Name:        b.name,
		Iters:       int64(r.N),
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		TrialsPerOp: b.trials,
	}
	if b.trials > 0 && row.NsPerOp > 0 {
		row.TrialsPerSec = float64(b.trials) / (row.NsPerOp / 1e9)
	}
	return row
}

func runAll(benches []bench, label, benchtime string) (obs.BenchFile, error) {
	f := obs.BenchFile{
		Schema:    obs.BenchSchema,
		Label:     label,
		Benchtime: benchtime,
		Host:      hostInfo(),
	}
	for _, b := range benches {
		fmt.Fprintf(os.Stderr, "ndbench: running %s...\n", b.name)
		r := testing.Benchmark(b.fn)
		if r.N == 0 {
			return f, fmt.Errorf("benchmark %s failed (0 iterations)", b.name)
		}
		f.Results = append(f.Results, normalize(b, r))
	}
	return f, f.Validate()
}

func renderResults(f obs.BenchFile) string {
	tbl := textplot.NewTable("benchmark", "iters", "ns/op", "allocs/op", "trials/s")
	for _, r := range f.Results {
		trials := "—"
		if r.TrialsPerSec > 0 {
			trials = fmt.Sprintf("%.0f", r.TrialsPerSec)
		}
		tbl.Add(r.Name, fmt.Sprintf("%d", r.Iters), fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp), trials)
	}
	return tbl.String()
}

func renderDeltas(deltas []obs.BenchDelta) string {
	tbl := textplot.NewTable("benchmark", "base ns/op", "cur ns/op", "ratio", "base allocs", "cur allocs", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		switch {
		case d.OnlyBase:
			verdict = "dropped"
		case d.OnlyCurrent:
			verdict = "new"
		case d.Regression && d.AllocRegression:
			verdict = "REGRESSION (ns+allocs)"
		case d.Regression:
			verdict = "REGRESSION"
		case d.AllocRegression:
			verdict = "ALLOC REGRESSION"
		case d.Improvement:
			verdict = "improved"
		}
		ns := func(v float64) string {
			if v == 0 {
				return "—"
			}
			return fmt.Sprintf("%.0f", v)
		}
		ratio := "—"
		if d.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", d.Ratio)
		}
		allocs := func(v int64) string {
			if d.OnlyBase || d.OnlyCurrent {
				return "—"
			}
			return fmt.Sprintf("%d", v)
		}
		tbl.Add(d.Name, ns(d.BaseNs), ns(d.CurNs), ratio,
			allocs(d.BaseAllocs), allocs(d.CurAllocs), verdict)
	}
	return tbl.String()
}

func writeFile(path string, f obs.BenchFile) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndbench:", err)
	os.Exit(1)
}

func main() {
	var (
		out       = flag.String("out", "", "write the trajectory JSON here (\"-\" for stdout)")
		label     = flag.String("label", "", "label recorded in the document (e.g. \"PR 6\")")
		benchtime = flag.String("benchtime", "200ms", "per-benchmark measuring time (testing -benchtime syntax, e.g. 1s or 100x)")
		benchRe   = flag.String("bench", "", "only run benchmarks matching this regexp")
		list      = flag.Bool("list", false, "list registry benchmark names and exit")
		compare   = flag.String("compare", "", "baseline BENCH_*.json to compare against")
		against   = flag.String("against", "", "candidate BENCH_*.json for -compare (default: run live)")
		tol       = flag.Float64("tolerance", obs.DefaultBenchTolerance, "relative ns/op slack before a row counts as regressed")
		allocTol  = flag.Float64("alloctol", obs.DefaultAllocTolerance, "relative allocs/op slack before a row counts as regressed (allocs are deterministic, so this band is tight)")
		strict    = flag.Bool("strict", false, "exit nonzero when -compare finds regressions")
	)
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatal(fmt.Errorf("invalid -benchtime %q: %w", *benchtime, err))
	}

	benches, err := registry()
	if err != nil {
		fatal(err)
	}
	if *list {
		for _, b := range benches {
			fmt.Println(b.name)
		}
		return
	}
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			fatal(fmt.Errorf("invalid -bench regexp: %w", err))
		}
		kept := benches[:0]
		for _, b := range benches {
			if re.MatchString(b.name) {
				kept = append(kept, b)
			}
		}
		benches = kept
		if len(benches) == 0 {
			fatal(fmt.Errorf("-bench %q matches no registry benchmarks", *benchRe))
		}
	}

	// Comparing two committed files needs no benchmark run at all.
	var cur obs.BenchFile
	if *compare != "" && *against != "" {
		cur, err = obs.ReadBenchFile(*against)
	} else {
		cur, err = runAll(benches, *label, *benchtime)
	}
	if err != nil {
		fatal(err)
	}

	if *compare == "" || *against == "" {
		fmt.Print(renderResults(cur))
	}
	if *out != "" {
		if err := writeFile(*out, cur); err != nil {
			fatal(err)
		}
		if *out != "-" {
			fmt.Fprintf(os.Stderr, "ndbench: wrote %s (%d results)\n", *out, len(cur.Results))
		}
	}

	if *compare != "" {
		base, err := obs.ReadBenchFile(*compare)
		if err != nil {
			fatal(err)
		}
		if base.Host != cur.Host {
			fmt.Fprintln(os.Stderr, "ndbench: warning: host fingerprints differ; ratios are apples-to-oranges")
		}
		deltas := obs.CompareBench(base, cur, *tol, *allocTol)
		fmt.Print(renderDeltas(deltas))
		if n := obs.Regressions(deltas); n > 0 {
			fmt.Fprintf(os.Stderr, "ndbench: %d benchmark(s) regressed (ns/op beyond %.0f%% or allocs/op beyond %.0f%%) vs %s\n",
				n, *tol*100, *allocTol*100, *compare)
			if *strict {
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "ndbench: tolerant mode — not failing (use -strict in CI gates)")
		} else {
			fmt.Fprintf(os.Stderr, "ndbench: no regressions vs %s\n", *compare)
		}
	}
}
