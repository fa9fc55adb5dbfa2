package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// warmupPerKind designs of each kind make a set-up warm-up batch.
const warmupPerKind = 8

// coldKernelSample is how many trials per point the traced run replays on
// the sim primitive directly.
const coldKernelSample = 8

// runCold is the cold-design workload: each op runs a fresh batch of pair
// designs through engine.RunSuite and engine.WriteJSON, every point a
// build-cache miss, then checks every point's exact worst case against a
// standalone analysis of the same schedules.
func runCold(e *env) (*report, error) {
	r := &report{}
	acc := newLayerAcc(e.nproc)
	// Set-up warms the process (code, heap) with a small cold batch that
	// sits just below op 0 on the parameter ring, so no op reuses its keys.
	_, err := timeSetups(r, nil, func(rep int) (struct{}, error) {
		_, _, _, err := designOp(coldBatch(e.seed, -1-rep, warmupPerKind), e.nproc, "cold-design", nil)
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}

	scr := sim.NewScratch()
	rss := startRSS()
	defer rss.stop()
	for op := 0; op == 0 || r.windowS < e.seconds; op++ {
		batch := coldBatch(e.seed, op, coldPerKind)
		// The traced run alternates traced and untraced ops, for
		// trace.overhead.
		var tr *tracer
		if e.traced() && op%2 == 0 {
			tr = e.tr
		}
		// Every op starts from a collected heap, as a testing.B loop does.
		runtime.GC()
		rss.take()
		m0 := readMem()
		t0 := time.Now()
		aggs, m, doc, err := designOp(batch, e.nproc, "cold-design", tr)
		wall := time.Since(t0)
		mem := readMem().sub(m0)
		r.rssMB = append(r.rssMB, rss.take())
		if err != nil {
			return nil, err
		}
		// The workload's premise: every point pays for a cold build.
		if m.BuildCache.Misses != int64(len(batch)) {
			return nil, fmt.Errorf("op %d: %d build-cache misses for %d points; the workload no longer exercises cold builds", op, m.BuildCache.Misses, len(batch))
		}
		r.attempted++
		r.opMS = append(r.opMS, ms(wall))
		r.windowS += wall.Seconds()
		r.points += int64(len(batch))
		r.trials += m.Trials

		if err := checkDocument(doc, batch, aggs); err != nil {
			r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
			continue
		}
		if tr == nil {
			if e.traced() {
				acc.untracedMS = append(acc.untracedMS, ms(wall))
			}
			if err := verifyDesigns(batch, aggs, e.nproc); err != nil {
				r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
			}
			continue
		}
		acc.tracedMS = append(acc.tracedMS, ms(wall))
		acc.addRun(m)
		acc.mem = addMem(acc.mem, mem)
		ot := opTrace{wallMS: ms(wall), runMS: m.WallMS, executed: true, trials: map[string]int64{}}
		ot.refID = e.tr.begin("reference", 0)
		for i, sc := range batch {
			if err := traceReference(e.tr, ot.refID, sc, aggs[i], coldKernelSample, scr, acc); err != nil {
				r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
				break
			}
			ot.trials[kernelOf(sc)] += int64(aggs[i].Trials)
		}
		e.tr.end(ot.refID, 0)
		acc.ops = append(acc.ops, ot)
	}
	if e.traced() {
		r.layers = acc.finalize(e.tr.snapshot())
	}
	return r, nil
}

// designOp is one op of the design workloads: the batch through
// engine.RunSuite, then the suite document through engine.WriteJSON, each
// inside its span.
func designOp(batch []engine.Scenario, workers int, suite string, tr *tracer) ([]engine.Aggregate, obs.RunMetrics, []byte, error) {
	var m obs.RunMetrics
	id := tr.begin("engine.run", 0)
	aggs, err := engine.RunSuite(batch, engine.Options{Workers: workers, Metrics: &m})
	tr.end(id, int64(len(batch)))
	if err != nil {
		return nil, m, nil, fmt.Errorf("engine.RunSuite: %w", err)
	}
	var buf bytes.Buffer
	id = tr.begin("report.encode", 0)
	err = engine.WriteJSON(&buf, engine.SuiteResult{Suite: suite, Scenarios: aggs, Runtime: &m})
	tr.end(id, int64(buf.Len()))
	if err != nil {
		return nil, m, nil, fmt.Errorf("engine.WriteJSON: %w", err)
	}
	return aggs, m, buf.Bytes(), nil
}

// checkDocument checks that the written document decodes to one aggregate
// per input, in input order, each with the effective trial count.
func checkDocument(doc []byte, batch []engine.Scenario, aggs []engine.Aggregate) error {
	var res engine.SuiteResult
	if err := json.Unmarshal(doc, &res); err != nil {
		return fmt.Errorf("document does not decode: %w", err)
	}
	if len(res.Scenarios) != len(batch) || len(aggs) != len(batch) {
		return fmt.Errorf("document holds %d aggregates (%d returned) for %d scenarios", len(res.Scenarios), len(aggs), len(batch))
	}
	for i, sc := range batch {
		want := sc.Trials
		if sc.Exact {
			want = 0
		}
		got := res.Scenarios[i]
		if got.Scenario.Name != sc.Name || got.Trials != want || got.ExactWorst != aggs[i].ExactWorst {
			return fmt.Errorf("aggregate %d is %q with %d trials, want %q with %d", i, got.Scenario.Name, got.Trials, sc.Name, want)
		}
	}
	return nil
}

// verifyDesigns checks every aggregate's exact worst case against a
// standalone analysis, on `workers` goroutines, untraced.
func verifyDesigns(batch []engine.Scenario, aggs []engine.Aggregate, workers int) error {
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batch); i += workers {
				ref, err := buildReference(batch[i], nil, 0)
				if err == nil {
					err = checkExactWorst(batch[i], aggs[i], ref)
				}
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceReference verifies one point against its standalone reference,
// serially and under spans, then replays at least n of its trials on the
// sim primitive.
func traceReference(tr *tracer, parent int, sc engine.Scenario, agg engine.Aggregate, n int, scr *sim.Scratch, acc *layerAcc) error {
	ref, err := buildReference(sc, tr, parent)
	if err != nil {
		return err
	}
	if err := checkExactWorst(sc, agg, ref); err != nil {
		return err
	}
	objs, err := ref.sampleKernel(sc, agg, n, scr, tr, parent)
	acc.simObjects += objs
	return err
}

func addMem(a, b memCounters) memCounters {
	return memCounters{
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCycles:     a.gcCycles + b.gcCycles,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
