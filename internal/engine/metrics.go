package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the engine side of the observability layer: a per-run
// recorder that watches runMany execute — wall clocks, per-worker busy
// time, aggregation-state memory, build-cache traffic — and serves the
// Progress callback. Everything here is measurement only; nothing feeds
// back into what the engine computes, so the determinism contract
// (bit-identical aggregates for any worker count) is untouched by
// construction.

// defaultProgressInterval is the Progress snapshot period when
// Options.ProgressInterval is unset.
const defaultProgressInterval = 500 * time.Millisecond

// runRecorder collects one runMany invocation's RunMetrics and drives the
// Progress callback. Counters are atomics updated from the worker pool;
// the snapshot methods only read, so a snapshot is cheap and never blocks
// a worker.
type runRecorder struct {
	start       time.Time
	workers     int
	pointsTotal int
	trialsTotal int64

	pointsDone atomic.Int64
	trialsDone atomic.Int64

	// busyNS[w] is worker w's cumulative trial-execution time (including
	// any point finalization it performed). busy/wall is the worker's
	// utilization; a well-fed pool sits near 1.0 everywhere.
	busyNS []atomic.Int64

	// accumCur tracks the live aggregation-state estimate (the workers'
	// accumulators, see Accum.approxBytes); accumPeak its high-water mark.
	accumCur  atomic.Int64
	accumPeak atomic.Int64

	// cache0 is the build cache's traffic snapshot at run start; the
	// run's traffic is the final snapshot minus this.
	cache0 obs.CacheStats
}

func newRunRecorder(workers, points int) *runRecorder {
	return &runRecorder{
		start:       time.Now(),
		workers:     workers,
		pointsTotal: points,
		busyNS:      make([]atomic.Int64, workers),
		cache0:      buildCache.stats(),
	}
}

// sinceNS is the nanoseconds elapsed since the run started — the time
// base every recorder measurement uses.
func (r *runRecorder) sinceNS() int64 { return int64(time.Since(r.start)) }

// accumAdd tracks newly materialized aggregation state, maintaining the
// high-water mark with a CAS loop (racing adds may interleave, but the
// peak never under-reports a level that accumCur actually reached).
func (r *runRecorder) accumAdd(n int64) {
	cur := r.accumCur.Add(n)
	for {
		peak := r.accumPeak.Load()
		if cur <= peak || r.accumPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// accumRelease returns aggregation state tracked by accumAdd.
func (r *runRecorder) accumRelease(n int64) { r.accumCur.Add(-n) }

// snapshot assembles one Progress view of the counters. Counters only
// grow, so successive snapshots are monotone even though the reads are
// not atomic as a group.
func (r *runRecorder) snapshot(final bool) obs.Progress {
	elapsed := float64(r.sinceNS()) / 1e6
	done := r.trialsDone.Load()
	p := obs.Progress{
		PointsDone:  int(r.pointsDone.Load()),
		PointsTotal: r.pointsTotal,
		TrialsDone:  done,
		TrialsTotal: r.trialsTotal,
		ElapsedMS:   elapsed,
		Final:       final,
	}
	if !final && done > 0 && done < r.trialsTotal {
		p.EtaMS = elapsed * float64(r.trialsTotal-done) / float64(done)
	}
	return p
}

// startProgress launches the progress monitor: an immediate snapshot, one
// per interval from a single goroutine, and — via the returned stop
// function, which the caller must invoke after the pool drains — a
// guaranteed Final snapshot. One goroutine issues every callback, so the
// callback is never invoked concurrently with itself.
func (r *runRecorder) startProgress(opt Options) (stop func()) {
	if opt.Progress == nil {
		return func() {}
	}
	interval := opt.ProgressInterval
	if interval <= 0 {
		interval = defaultProgressInterval
	}
	opt.Progress(r.snapshot(false))
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				opt.Progress(r.snapshot(false))
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		opt.Progress(r.snapshot(true))
	}
}

// metrics finalizes the run's RunMetrics record once the pool has
// drained.
func (r *runRecorder) metrics(points []*point) obs.RunMetrics {
	wallNS := r.sinceNS()
	if wallNS < 1 {
		wallNS = 1
	}
	m := obs.RunMetrics{
		WallMS:         float64(wallNS) / 1e6,
		Points:         r.pointsTotal,
		Trials:         r.trialsTotal,
		TrialsPerSec:   float64(r.trialsTotal) / (float64(wallNS) / 1e9),
		Workers:        r.workers,
		BuildCache:     buildCache.stats().Sub(r.cache0),
		PeakAccumBytes: r.accumPeak.Load(),
	}
	m.WorkerBusy = make([]float64, r.workers)
	for w := range m.WorkerBusy {
		f := float64(r.busyNS[w].Load()) / float64(wallNS)
		if f > 1 {
			f = 1
		}
		m.WorkerBusy[w] = f
	}
	for _, p := range points {
		if p.quantized {
			m.StreamedPoints++
		} else {
			m.ExactPoints++
		}
	}
	return m
}
