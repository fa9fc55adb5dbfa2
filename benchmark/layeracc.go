package main

import (
	"repro/internal/obs"
)

// analysisSpans are the spans that make up "analysis": building the
// schedules and analyzing them exactly.
var analysisSpans = map[string]bool{
	"schedule.build":       true,
	"coverage.analyze":     true,
	"multichannel.analyze": true,
	"slots.analyze":        true,
}

// opTrace is one traced op's own record, joined with its spans when the
// per-layer metrics are derived.
type opTrace struct {
	wallMS   float64          // the op's latency
	runMS    float64          // the engine's run inside it (0 when nothing ran)
	refID    int              // parent span of the op's reference calls (0 = none)
	trials   map[string]int64 // trials the engine ran, per sim kernel
	executed bool             // the engine ran (not a result-cache hit)
}

// layerAcc accumulates the traced run's per-layer measurements. Traced and
// untraced ops alternate in the traced run; only traced ops are recorded
// here, and the untraced ones only lend their latency to trace.overhead.
type layerAcc struct {
	workers int

	ops []opTrace

	// Engine: from the RunMetrics of each traced op that executed.
	busy         float64
	misses, hits int64
	peakAccum    int64
	streamed     int64
	pooled       int64

	// Daemon: server-side timings and counts of traced jobs.
	queueWaitMS float64
	cacheHits   int64

	simObjects uint64      // heap objects the sampled kernel trials allocated
	mem        memCounters // runtime counters over the traced ops' timed sections

	tracedMS, untracedMS []float64
}

func newLayerAcc(workers int) *layerAcc { return &layerAcc{workers: workers} }

// addRun folds one executed op's engine metrics.
func (a *layerAcc) addRun(m obs.RunMetrics) {
	var busy float64
	for _, b := range m.WorkerBusy {
		busy += b
	}
	if len(m.WorkerBusy) > 0 {
		a.busy += busy / float64(len(m.WorkerBusy))
	}
	a.misses += m.BuildCache.Misses
	a.hits += m.BuildCache.Hits
	if m.PeakAccumBytes > a.peakAccum {
		a.peakAccum = m.PeakAccumBytes
	}
	a.streamed += int64(m.StreamedPoints)
	a.pooled += int64(m.ExactPoints)
	a.queueWaitMS += m.QueueWaitMS
}

// finalize derives every per-layer metric from the spans and the op
// records.
func (a *layerAcc) finalize(spans []span) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	ops := float64(len(a.ops))
	if ops == 0 {
		return out
	}
	totals := layerTotals(spans)
	perOpMS := func(name string) float64 { return float64(totals[name].selfNS) / 1e6 / ops }

	for name := range analysisSpans {
		out[name+"_ms"] = perOpMS(name)
	}
	out["coverage.calls"] = float64(totals["coverage.analyze"].spans) / ops
	out["coverage.alloc_mb"] = float64(totals["coverage.analyze"].n) / 1e6 / ops

	nsPerTrial := make(map[string]float64, len(kernels))
	var simTrials int64
	for _, k := range kernels {
		t := totals["sim."+k]
		if t.n > 0 {
			nsPerTrial[k] = float64(t.selfNS) / float64(t.n)
		}
		out["sim."+k+"_ns_per_trial"] = nsPerTrial[k]
		simTrials += t.n
	}
	if simTrials > 0 {
		out["sim.allocs_per_trial"] = float64(a.simObjects) / float64(simTrials)
	}

	// Attribution: the analysis and kernel time each op's engine run
	// should have cost, spread over the workers, against what it took.
	self := selfTimes(spans)
	analysisByRef := make(map[int]float64)
	for _, s := range spans {
		if analysisSpans[s.Name] {
			analysisByRef[s.Parent] += float64(self[s.ID]) / 1e6
		}
	}
	var executed, runMS, wallMS, unattributed, analysisPar float64
	for _, op := range a.ops {
		wallMS += op.wallMS
		if !op.executed {
			continue
		}
		executed++
		runMS += op.runMS
		par := analysisByRef[op.refID] / float64(a.workers)
		analysisPar += par
		kernelMS := 0.0
		for _, k := range kernels {
			kernelMS += float64(op.trials[k]) * nsPerTrial[k] / 1e6
		}
		unattributed += op.runMS - par - kernelMS/float64(a.workers)
	}
	out["engine.run_ms"] = runMS / ops
	out["engine.unattributed_ms"] = unattributed / ops
	if wallMS > 0 {
		out["analysis.wall_share"] = analysisPar / wallMS
	}
	if executed > 0 {
		out["engine.worker_busy"] = a.busy / executed
	}
	out["engine.build_cache_misses"] = float64(a.misses) / ops
	out["engine.build_cache_hits"] = float64(a.hits) / ops
	out["engine.peak_accum_mb"] = float64(a.peakAccum) / 1e6
	out["engine.streamed_points"] = float64(a.streamed) / ops
	out["engine.pooled_points"] = float64(a.pooled) / ops

	out["report.encode_ms"] = perOpMS("report.encode")
	out["report.bytes"] = float64(totals["report.encode"].n) / ops

	out["server.submit_ms"] = perOpMS("server.submit")
	out["server.sse_ms"] = perOpMS("server.sse")
	out["server.result_ms"] = perOpMS("server.result")
	out["server.result_bytes"] = float64(totals["server.result"].n) / ops
	out["server.sse_events"] = float64(totals["server.sse"].n) / ops
	out["server.queue_wait_ms"] = a.queueWaitMS / ops
	if totals["server.submit"].spans > 0 {
		// Only daemon jobs run on the daemon.
		out["server.run_ms"] = runMS / ops
	}
	out["server.cache_hits"] = float64(a.cacheHits)

	out["runtime.gc_cycles"] = float64(a.mem.gcCycles) / ops
	out["runtime.alloc_mb"] = float64(a.mem.allocBytes) / 1e6 / ops
	if u := mean(a.untracedMS); u > 0 {
		out["trace.overhead"] = mean(a.tracedMS) / u
	}
	return out
}
