// Package obs is the engine's observability layer: run-metrics records,
// progress snapshots, and the persisted benchmark-trajectory schema. It
// depends only on the standard library and is determinism-safe by
// construction — nothing in this package feeds back into what the engine
// computes, only into what it reports about how the computation went.
//
// The contract with the rest of the repository: every value defined here
// lives OUTSIDE the determinism contract. Aggregates, sweep grids and
// adaptive traces are bit-identical for any worker count; their "runtime"
// sections (RunMetrics, PointMetrics) carry wall times, worker busy
// fractions and cache traffic that legitimately differ run to run, and
// are therefore structurally excluded from golden comparison (the golden
// harness strips them, and a test enforces the exclusion).
package obs

import "fmt"

// CacheStats counts one cache's traffic over a run: lookups that found an
// entry, lookups that created one, and entries evicted past capacity. The
// engine's schedule/analysis build cache is process-global, so these are
// deltas between the run's start and end snapshots — concurrent runs in
// one process see each other's traffic.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Sub returns the delta c − prev, the traffic between two snapshots.
func (c CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:      c.Hits - prev.Hits,
		Misses:    c.Misses - prev.Misses,
		Evictions: c.Evictions - prev.Evictions,
	}
}

// add folds o into c (used when merging round-level metrics).
func (c *CacheStats) add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
}

// RunMetrics is the runtime record of one executor invocation — a suite,
// a sweep, or (accumulated over rounds) an adaptive search. It is carried
// in the "runtime" section of result documents and rendered by ndscen's
// metrics summary; it is never part of the determinism contract.
type RunMetrics struct {
	// WallMS is the total wall-clock time of the run in milliseconds.
	WallMS float64 `json:"wall_ms"`

	// Points is the number of scenarios (grid points) executed and Trials
	// the total Monte-Carlo trials across all of them.
	Points int   `json:"points"`
	Trials int64 `json:"trials"`

	// TrialsPerSec is Trials over the wall time — the headline throughput
	// number the ROADMAP's perf items are judged by.
	TrialsPerSec float64 `json:"trials_per_sec"`

	// Workers is the resolved worker-goroutine count and WorkerBusy each
	// worker's busy fraction: time spent executing trials divided by the
	// run's wall time. A well-fed pool sits near 1.0 on every worker;
	// low fractions mean the feeder or a serial stage is the bottleneck.
	Workers    int       `json:"workers"`
	WorkerBusy []float64 `json:"worker_busy,omitempty"`

	// BuildCache is the schedule/analysis build cache's traffic during
	// the run (hits recall a memoized build + exact analysis; misses pay
	// for one; evictions drop the least-recently-used entry).
	BuildCache CacheStats `json:"build_cache"`

	// StreamedPoints and ExactPoints split the points by how their
	// accumulators key latencies: quantized into at most 4096 bins (points
	// expecting more than ~262k samples) vs exact ticks.
	StreamedPoints int `json:"streamed_points"`
	ExactPoints    int `json:"exact_points"`

	// MemoHits counts adaptive-search coordinates recalled from the
	// evaluation memo instead of re-run (adaptive runs only).
	MemoHits int `json:"memo_hits,omitempty"`

	// ShardK/ShardN identify the trial-range shard this invocation ran
	// (sharded runs only; 0/0 = unsharded) and SnapshotPoints counts the
	// accumulator snapshots it exported.
	ShardK         int `json:"shard_k,omitempty"`
	ShardN         int `json:"shard_n,omitempty"`
	SnapshotPoints int `json:"snapshot_points,omitempty"`

	// ResumedPoints counts points restored from a job journal instead of
	// re-executed (journaled runs only).
	ResumedPoints int `json:"resumed_points,omitempty"`

	// QueueWaitMS is the time a daemon job spent queued before a runner
	// picked it up (daemon-scheduled runs only).
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`

	// ResultCacheHit marks a daemon job answered from the result cache: no
	// execution happened, and every other field reports the original run.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`

	// PeakAccumBytes is the high-water estimate of live aggregation
	// state — the workers' per-point accumulators — across the run.
	PeakAccumBytes int64 `json:"peak_accum_bytes"`
}

// Merge folds another invocation's metrics into m: durations, counts and
// cache traffic add; worker counts and peak memory take the maximum; the
// throughput is re-derived from the merged totals. RunAdaptive uses this
// to accumulate its per-round executor invocations into one record.
func (m *RunMetrics) Merge(o RunMetrics) {
	m.WallMS += o.WallMS
	m.Points += o.Points
	m.Trials += o.Trials
	m.BuildCache.add(o.BuildCache)
	m.StreamedPoints += o.StreamedPoints
	m.ExactPoints += o.ExactPoints
	m.MemoHits += o.MemoHits
	m.SnapshotPoints += o.SnapshotPoints
	m.ResumedPoints += o.ResumedPoints
	m.QueueWaitMS += o.QueueWaitMS
	m.ResultCacheHit = m.ResultCacheHit || o.ResultCacheHit
	if m.ShardK == 0 && m.ShardN == 0 {
		m.ShardK, m.ShardN = o.ShardK, o.ShardN
	}
	if o.Workers > m.Workers {
		m.Workers = o.Workers
	}
	if o.PeakAccumBytes > m.PeakAccumBytes {
		m.PeakAccumBytes = o.PeakAccumBytes
	}
	// Per-worker busy fractions of distinct invocations are not
	// commensurable (different walls); a merged record drops them.
	m.WorkerBusy = nil
	m.TrialsPerSec = 0
	if m.WallMS > 0 {
		m.TrialsPerSec = float64(m.Trials) / (m.WallMS / 1000)
	}
}

// PointMetrics is one scenario's (grid point's) runtime record, carried
// in the aggregate's "runtime" section: the wall time from the point's
// first trial starting to its last trial finishing, and the implied
// throughput. Like RunMetrics it is outside the determinism contract.
type PointMetrics struct {
	WallMS       float64 `json:"wall_ms"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// Progress is one execution-progress snapshot, delivered to the
// Progress callback on the engine options. Snapshots are serialized (the
// callback is never invoked concurrently) and monotone: PointsDone and
// TrialsDone never decrease, and the last snapshot has Final set with
// every counter at its total.
type Progress struct {
	// PointsDone / PointsTotal count completed scenarios (grid points).
	PointsDone  int
	PointsTotal int

	// TrialsDone / TrialsTotal count completed Monte-Carlo trials across
	// all points.
	TrialsDone  int64
	TrialsTotal int64

	// ElapsedMS is the wall time since the run started; EtaMS the naive
	// remaining-time estimate Elapsed·(total−done)/done, 0 until any
	// trial has finished.
	ElapsedMS float64
	EtaMS     float64

	// Final marks the guaranteed last snapshot, emitted after the run
	// completes.
	Final bool
}

// String renders a one-line human-readable form, the shape the ndscen
// -progress ticker prints.
func (p Progress) String() string {
	eta := ""
	if !p.Final && p.EtaMS > 0 {
		eta = fmt.Sprintf(", eta %.1fs", p.EtaMS/1000)
	}
	return fmt.Sprintf("%d/%d points, %d/%d trials, %.1fs%s",
		p.PointsDone, p.PointsTotal, p.TrialsDone, p.TrialsTotal, p.ElapsedMS/1000, eta)
}
