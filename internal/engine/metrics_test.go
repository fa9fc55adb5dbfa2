package engine

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunMetricsPopulated: every runMany invocation produces a full
// RunMetrics record — totals, worker accounting, aggregation-path split —
// and attaches a PointMetrics record to every aggregate.
func TestRunMetricsPopulated(t *testing.T) {
	sc := groupScenario()
	var m obs.RunMetrics
	aggs, err := RunSuite([]Scenario{sc, sc}, Options{Workers: 3, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Points != 2 || m.Trials != int64(2*sc.Trials) {
		t.Errorf("totals wrong: %+v", m)
	}
	if m.Workers != 3 || len(m.WorkerBusy) != 3 {
		t.Errorf("worker accounting wrong: %+v", m)
	}
	if m.WallMS <= 0 || m.TrialsPerSec <= 0 {
		t.Errorf("wall/throughput not measured: %+v", m)
	}
	if m.StreamedPoints+m.ExactPoints != 2 {
		t.Errorf("path split wrong: %+v", m)
	}
	if m.PeakAccumBytes <= 0 {
		t.Errorf("peak accumulator estimate missing: %+v", m)
	}
	for i, a := range aggs {
		if a.Runtime == nil || a.Runtime.WallMS <= 0 || a.Runtime.TrialsPerSec <= 0 {
			t.Errorf("aggregate %d missing point metrics: %+v", i, a.Runtime)
		}
	}
}

// TestMetricsStreamedPath: a quantized point is visible in the path split,
// and the peak-memory estimate stays bounded by bins: two workers'
// quantized accumulators plus the smaller crowd point's.
func TestMetricsStreamedPath(t *testing.T) {
	var m obs.RunMetrics
	if _, err := RunSuite([]Scenario{quantizedScenario(), groupScenario()}, Options{Workers: 2, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.StreamedPoints != 1 || m.ExactPoints != 1 {
		t.Errorf("quantized point not reflected in the path split: %+v", m)
	}
	if m.PeakAccumBytes <= 0 || m.PeakAccumBytes > 3*(streamBins*32+1024) {
		t.Errorf("peak accumulator estimate %d not bounded by the points' bins: %+v", m.PeakAccumBytes, m)
	}
}

// TestMetricsWorkerInvariance pins the tentpole's contract precisely:
// worker 1 and worker 8 runs differ ONLY inside the runtime sections.
// Both carry metrics; after StripRuntime the full documents are
// byte-identical.
func TestMetricsWorkerInvariance(t *testing.T) {
	sc := groupScenario()
	render := func(workers int) (stripped, raw []byte) {
		t.Helper()
		var m obs.RunMetrics
		aggs, err := RunSuite([]Scenario{sc}, Options{Workers: workers, Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		res := SuiteResult{Suite: "metrics-invariance", Scenarios: aggs, Runtime: &m}
		var rawBuf bytes.Buffer
		if err := WriteJSON(&rawBuf, res); err != nil {
			t.Fatal(err)
		}
		res.StripRuntime()
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rawBuf.Bytes()
	}
	serial, rawSerial := render(1)
	parallel, rawParallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Error("stripped documents differ between 1 and 8 workers")
	}
	// The raw documents must actually carry the runtime sections — if the
	// field silently stopped serializing, the invariance above is vacuous.
	for name, raw := range map[string][]byte{"serial": rawSerial, "parallel": rawParallel} {
		if !bytes.Contains(raw, []byte(`"runtime"`)) {
			t.Errorf("%s document carries no runtime section", name)
		}
	}
}

// sentinelMetrics populates every RunMetrics field with a non-zero value,
// so a field that escaped the exclusion would be visible in serialized
// output.
func sentinelMetrics() *obs.RunMetrics {
	return &obs.RunMetrics{
		WallMS: 1, Points: 1, Trials: 1, TrialsPerSec: 1,
		Workers: 1, WorkerBusy: []float64{1},
		BuildCache:     obs.CacheStats{Hits: 1, Misses: 1, Evictions: 1},
		StreamedPoints: 1, ExactPoints: 1, MemoHits: 1, PeakAccumBytes: 1,
		QueueWaitMS: 1, ResultCacheHit: true,
	}
}

// TestGoldenExcludesRuntime enforces the golden-exclusion contract: a
// result whose every runtime slot is populated serializes, after
// StripRuntime, to bytes containing no trace of the metrics — so goldens
// can never absorb a wall time.
func TestGoldenExcludesRuntime(t *testing.T) {
	agg := Aggregate{Runtime: &obs.PointMetrics{WallMS: 1, TrialsPerSec: 1}}
	suite := SuiteResult{Suite: "x", Scenarios: []Aggregate{agg}, Runtime: sentinelMetrics()}
	adaptive := AdaptiveResult{
		Name:    "x",
		Best:    AdaptivePoint{Aggregate: &Aggregate{Runtime: &obs.PointMetrics{WallMS: 1}}},
		Runtime: sentinelMetrics(),
		Rounds: []AdaptiveRound{{
			Points: []AdaptivePoint{{Aggregate: &Aggregate{Runtime: &obs.PointMetrics{WallMS: 1}}}},
			Best:   AdaptivePoint{Aggregate: &Aggregate{Runtime: &obs.PointMetrics{WallMS: 1}}},
		}},
	}

	var before bytes.Buffer
	if err := writeIndentedJSON(&before, suite); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(before.Bytes(), []byte(`"runtime"`)) {
		t.Fatal("populated suite result did not serialize its runtime sections")
	}

	suite.StripRuntime()
	adaptive.StripRuntime()
	for name, v := range map[string]any{"suite": suite, "adaptive": adaptive} {
		var buf bytes.Buffer
		if err := writeIndentedJSON(&buf, v); err != nil {
			t.Fatal(err)
		}
		for _, leak := range []string{"runtime", "wall_ms", "trials_per_sec", "worker_busy", "build_cache"} {
			if bytes.Contains(buf.Bytes(), []byte(leak)) {
				t.Errorf("%s: stripped document still mentions %q", name, leak)
			}
		}
	}
}

// TestProgressCallbackOrdering pins the Progress contract: an initial
// snapshot, monotone counters, serialized delivery, and a guaranteed
// Final snapshot with every counter at its total.
func TestProgressCallbackOrdering(t *testing.T) {
	sc := groupScenario()
	sc.Trials = 24
	var snaps []obs.Progress
	var inFlight atomic.Int32
	opt := Options{
		Workers:          4,
		ProgressInterval: time.Millisecond,
		Progress: func(p obs.Progress) {
			if inFlight.Add(1) != 1 {
				t.Error("progress callback invoked concurrently")
			}
			snaps = append(snaps, p) // unsynchronized on purpose: serialized delivery makes this safe
			inFlight.Add(-1)
		},
	}
	if _, err := RunSuite([]Scenario{sc, sc}, opt); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("want at least initial+final snapshots, got %d", len(snaps))
	}
	for i := 1; i < len(snaps)-1; i++ {
		if snaps[i].Final {
			t.Errorf("snapshot %d of %d marked Final", i, len(snaps))
		}
	}
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if b.TrialsDone < a.TrialsDone || b.PointsDone < a.PointsDone || b.ElapsedMS < a.ElapsedMS {
			t.Errorf("snapshots not monotone: %+v then %+v", a, b)
		}
	}
	final := snaps[len(snaps)-1]
	if !final.Final {
		t.Error("last snapshot not marked Final")
	}
	if final.TrialsDone != final.TrialsTotal || final.TrialsTotal != int64(2*sc.Trials) {
		t.Errorf("final trial counters wrong: %+v", final)
	}
	if final.PointsDone != 2 || final.PointsTotal != 2 {
		t.Errorf("final point counters wrong: %+v", final)
	}
	if final.EtaMS != 0 {
		t.Errorf("final snapshot carries an ETA: %+v", final)
	}
}

// TestAdaptiveRuntimeMetrics: RunAdaptive accumulates its per-round
// executor metrics into one record and counts its memo recalls.
func TestAdaptiveRuntimeMetrics(t *testing.T) {
	ap, err := AdaptivePreset("adaptive-eta")
	if err != nil {
		t.Fatal(err)
	}
	ap.Base.Trials = 8
	var m obs.RunMetrics
	res, err := RunAdaptive(ap, Options{Workers: 2, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == nil {
		t.Fatal("adaptive result carries no runtime record")
	}
	if res.Runtime.Points != res.Evaluations {
		t.Errorf("runtime points %d != evaluations %d", res.Runtime.Points, res.Evaluations)
	}
	if res.Runtime.Trials == 0 || res.Runtime.WallMS <= 0 {
		t.Errorf("executor metrics not accumulated: %+v", res.Runtime)
	}
	if len(res.Rounds) > 1 && res.Runtime.MemoHits == 0 {
		// Refinement grids always re-propose their bracket endpoints,
		// which the memo recalls instead of re-running.
		t.Errorf("refined search reports no memo hits: %+v", res.Runtime)
	}
	if !reflect.DeepEqual(m, *res.Runtime) {
		t.Errorf("opt.Metrics (%+v) disagrees with result runtime (%+v)", m, *res.Runtime)
	}
}

// TestRenderRunMetrics smoke-tests the summary rendering.
func TestRenderRunMetrics(t *testing.T) {
	m := *sentinelMetrics()
	m.Points, m.Trials, m.Workers = 3, 300, 2
	m.WorkerBusy = []float64{0.95, 0.91}
	out := RenderRunMetrics(m)
	for _, want := range []string{"3 points", "300 trials", "2 workers", "build cache", "0.95", "memo"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
