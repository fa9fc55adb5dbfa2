package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// warmKernelSample is how many trials per point the traced run replays on
// the sim primitive directly.
const warmKernelSample = 4

// warmupTrials is the trial count of the set-up's warm-up run.
const warmupTrials = 16

// warmState is the warm-mc set-up: the generated suite and, per point, its
// standalone reference (built once, so no op analyzes anything).
type warmState struct {
	suite []engine.Scenario
	refs  []*reference
}

// runWarm is the warm-mc workload: every op runs the same Monte-Carlo suite
// (crowd presets replicated over seeds, plus quiet pairs large enough to
// stream) on warm builds, and its stripped document must be identical on
// every op.
func runWarm(e *env) (*report, error) {
	r := &report{}
	acc := newLayerAcc(e.nproc)
	// Set-up is the program's: generating the suite and warming the build
	// cache with a short run of every point. Evicting every build before
	// each repetition makes each pay for the suite's builds.
	var coldMisses int64
	suite, err := timeSetups(r, func(rep int) error { return evictBuilds(rep, e.nproc) }, func(rep int) ([]engine.Scenario, error) {
		suite, err := warmSuite(e.seed)
		if err != nil {
			return nil, err
		}
		var m obs.RunMetrics
		if _, err := engine.RunSuite(suite, engine.Options{Workers: e.nproc, Trials: warmupTrials, Metrics: &m}); err != nil {
			return nil, fmt.Errorf("warming builds: %w", err)
		}
		if rep == 0 {
			coldMisses = m.BuildCache.Misses
		}
		if m.BuildCache.Misses == 0 || m.BuildCache.Misses != coldMisses {
			return nil, fmt.Errorf("repetition %d missed %d builds, the first %d; eviction no longer empties the build cache", rep, m.BuildCache.Misses, coldMisses)
		}
		return suite, nil
	})
	if err != nil {
		return nil, err
	}
	st := &warmState{suite: suite}
	for _, sc := range suite {
		ref, err := buildReference(sc, nil, 0)
		if err != nil {
			return nil, err
		}
		st.refs = append(st.refs, ref)
	}

	scr := sim.NewScratch()
	var first []byte
	rss := startRSS()
	defer rss.stop()
	for op := 0; op == 0 || r.windowS < e.seconds; op++ {
		var tr *tracer
		if e.traced() && op%2 == 0 {
			tr = e.tr
		}
		// Every op starts from a collected heap, as a testing.B loop does.
		runtime.GC()
		rss.take()
		m0 := readMem()
		t0 := time.Now()
		aggs, m, doc, err := designOp(st.suite, e.nproc, "warm-mc", tr)
		wall := time.Since(t0)
		mem := readMem().sub(m0)
		r.rssMB = append(r.rssMB, rss.take())
		if err != nil {
			return nil, err
		}
		// The workload's premises: builds stay warm, and both
		// accumulator paths run.
		if m.BuildCache.Misses != 0 {
			return nil, fmt.Errorf("op %d: %d build-cache misses after set-up; the workload no longer runs warm", op, m.BuildCache.Misses)
		}
		if m.StreamedPoints == 0 || m.ExactPoints == 0 {
			return nil, fmt.Errorf("op %d: %d streamed and %d pooled points; the workload must run both accumulator paths", op, m.StreamedPoints, m.ExactPoints)
		}
		r.attempted++
		r.opMS = append(r.opMS, ms(wall))
		r.windowS += wall.Seconds()
		r.points += int64(len(st.suite))
		r.trials += m.Trials

		if err := checkDocument(doc, st.suite, aggs); err != nil {
			r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
			continue
		}
		stripped, err := stripSuite(doc)
		switch {
		case err != nil:
			r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
			continue
		case first == nil:
			first = stripped
		case !bytes.Equal(stripped, first):
			r.fail(e.log, fmt.Errorf("op %d: stripped document differs from op 0's", op))
			continue
		}
		for i, sc := range st.suite {
			if err := checkExactWorst(sc, aggs[i], st.refs[i]); err != nil {
				r.fail(e.log, fmt.Errorf("op %d: %w", op, err))
				break
			}
		}
		if tr == nil {
			if e.traced() {
				acc.untracedMS = append(acc.untracedMS, ms(wall))
			}
			continue
		}
		acc.tracedMS = append(acc.tracedMS, ms(wall))
		acc.addRun(m)
		acc.mem = addMem(acc.mem, mem)
		ot := opTrace{wallMS: ms(wall), runMS: m.WallMS, executed: true, trials: map[string]int64{}}
		ot.refID = e.tr.begin("reference", 0)
		for i, sc := range st.suite {
			// The references were built at set-up: only the kernels run.
			objs, err := st.refs[i].sampleKernel(sc, aggs[i], warmKernelSample, scr, e.tr, ot.refID)
			acc.simObjects += objs
			if err != nil {
				r.fail(e.log, fmt.Errorf("op %d: %s: %w", op, sc.Name, err))
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

// evictDesigns is more fresh designs than the engine's build cache holds
// (256), so running them evicts every earlier build.
const evictDesigns = 320

// evictBuilds runs evictDesigns exact queries whose designs no other input
// uses, distinct for every repetition, which pushes every earlier build out
// of the engine's bounded build cache.
func evictBuilds(rep, workers int) error {
	batch := make([]engine.Scenario, evictDesigns)
	for j := range batch {
		batch[j] = engine.Scenario{
			Name: fmt.Sprintf("evict-%d-%d", rep, j),
			// The cold and ndd designs draw optimal's Eta below 0.06.
			Protocol:   engine.ProtocolSpec{Kind: "optimal", Omega: omegaPaper, Alpha: 1, Eta: 0.1 + 1e-5*float64(rep*evictDesigns+j)},
			Population: 2,
			Horizon:    worstHorizon,
			Exact:      true,
		}
	}
	if _, err := engine.RunSuite(batch, engine.Options{Workers: workers}); err != nil {
		return fmt.Errorf("evicting builds: %w", err)
	}
	return nil
}

// stripSuite re-renders a suite document without its runtime sections.
func stripSuite(doc []byte) ([]byte, error) {
	var res engine.SuiteResult
	if err := json.Unmarshal(doc, &res); err != nil {
		return nil, fmt.Errorf("document does not decode: %w", err)
	}
	res.StripRuntime()
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
