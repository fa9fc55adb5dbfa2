package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// ErrCanceled is the typed error a run returns when Options.Context is
// cancelled before the run completes. Cancellation is honored between trial
// windows, never inside one: a window's trials always finish, so a
// cancelled run never leaves a worker mid-trial, and errors.Is(err,
// ErrCanceled) distinguishes an abort from a genuine trial failure. The
// partial run produces no aggregates — results are all-or-nothing, so a
// caller can never mistake a truncated document for a complete one.
var ErrCanceled = errors.New("engine: run canceled")

// Options tunes execution without changing what is computed — except
// Trials and Exact, which (when set) are folded into the effective scenario
// before anything is derived from it. Results stay bit-identical across
// worker counts under every setting.
type Options struct {
	// Workers is the goroutine count sharding the trials; ≤ 0 means
	// GOMAXPROCS. The aggregate result is identical for every value.
	Workers int

	// Trials, when > 0, overrides Scenario.Trials (e.g. a CLI -trials
	// flag or a fast test run).
	Trials int

	// Exact forces every scenario onto the exact-analysis fast path
	// (Scenario.Exact, the -exact flag): aggregates are synthesized from
	// the schedule analysis and no trials run. Scenarios that need
	// Monte-Carlo trials — crowds, churn, any channel model, lossy
	// schedules — fail loudly instead of silently degrading.
	Exact bool

	// Progress, when non-nil, receives serialized execution-progress
	// snapshots: one when trial execution starts, one per
	// ProgressInterval while it runs, and a guaranteed Final one when the
	// pool drains. Snapshots are monotone, the callback is never invoked
	// concurrently with itself, and nothing it observes feeds back into
	// results.
	Progress func(obs.Progress)

	// ProgressInterval is the snapshot period; ≤ 0 means 500ms.
	ProgressInterval time.Duration

	// Metrics, when non-nil, is filled with the run's RunMetrics record
	// when execution finishes — on a failed run too, with what was
	// measured up to the failure.
	Metrics *obs.RunMetrics

	// Context, when non-nil, aborts the run when cancelled. Cancellation
	// is checked between trial windows (see batchSize), so an abort is
	// prompt — bounded by one window, never a whole point — and the run
	// returns an error wrapping ErrCanceled. A nil Context never cancels.
	Context context.Context

	// PointResult, when non-nil, is invoked with each point's input index
	// and finalized aggregate as soon as the point's last trial completes —
	// the streaming hook the daemon's per-point SSE events are built on.
	// Points finalize in completion order, not input order, and the
	// callback runs on whichever worker finishes the point, so invocations
	// for different points may be concurrent; the callback must be safe for
	// that. Like Progress, it observes results and must not feed back into
	// them. Failed and partial-range (sharded) points deliver nothing.
	PointResult func(idx int, agg Aggregate)

	// shard restricts every point to its trial-range shard (zero = the
	// full range). Set by the shard layer (shard.go), never by callers:
	// a sharded run produces snapshots, not aggregates.
	shard ShardSpec

	// capture makes finalize export each point's accumulator state as a
	// PointSnapshot (point.snap) instead of (for partial ranges) or in
	// addition to (for full ranges) aggregating.
	capture bool

	// pointDone, when non-nil, is invoked by the finalizing worker with
	// the point's input index and captured snapshot, serialized by the
	// journal layer. An error fails the point.
	pointDone func(idx int, snap *PointSnapshot) error

	// kernelOnly runs every pair trial on the kernel, even where the
	// point would read its latency table: a test hook that shows the two
	// paths agree, never set outside tests.
	kernelOnly bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctx resolves the run's context; a nil Options.Context never cancels.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// canceledErr wraps ErrCanceled with how far the run got — useful in logs,
// and errors.Is(err, ErrCanceled) still holds.
func canceledErr(rec *runRecorder) error {
	return fmt.Errorf("%w after %d of %d trials", ErrCanceled, rec.trialsDone.Load(), rec.trialsTotal)
}

// point is one prepared unit of scheduling: an effective scenario with its
// built schedules, resolved horizon and stay, and its workers'
// accumulators (see runMany).
type point struct {
	sc        Scenario
	b         *built
	cfg       sim.Config
	stay      timebase.Ticks
	horizon   timebase.Ticks
	hash      uint64
	quantized bool // keys are bins, not exact ticks (see accum.go)
	exact     bool // answered from the analysis; lo == hi == Trials == 0

	// idx is the point's index in the run's input order; lo/hi is the
	// half-open trial range this process executes (the full [0, Trials)
	// unless the run is sharded). capture/done mirror Options; snap is
	// the exported accumulator state when capture is set.
	idx     int
	lo, hi  int
	capture bool
	done    func(idx int, snap *PointSnapshot) error
	result  func(idx int, agg Aggregate)
	snap    *PointSnapshot

	// kernelOnly mirrors Options.kernelOnly.
	kernelOnly bool

	// accs (one accumulator slot per worker — only worker w touches
	// accs[w]) is allocated by the feeder just before the point's first
	// trial is enqueued, and released by the worker that finishes the
	// point's last trial, which aggregates into agg. Keeping at most the
	// in-flight points materialized bounds memory by one point's state at
	// a time, up to worker lookahead, for arbitrarily long suites and
	// sweeps.
	accs      []*Accum
	remaining atomic.Int64
	agg       Aggregate

	// pair is the prepared pair the pair kinds' trials run on, tabulated
	// when the point's trial range pays for its latency table (see
	// tabulates). Like accs it lives from the feeder's begin to finalize,
	// so only in-flight points hold a table.
	pair *sim.Pair

	// startNS is 1 + the recorder-relative start time of the point's
	// first trial (0 = none started yet), CAS'd once by whichever worker
	// gets there first; the finalizer differences it against its own
	// clock for the point's wall time.
	startNS atomic.Int64

	failed   atomic.Bool
	errMu    sync.Mutex
	errTrial int
	err      error
}

// recordErr keeps the error of the lowest-indexed failing trial. Every
// trial runs even after a point has failed, so the reported trial is the
// minimum over all failures — the same for any worker count.
func (p *point) recordErr(trial int, err error) {
	p.failed.Store(true)
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err == nil || trial < p.errTrial {
		p.err, p.errTrial = err, trial
	}
}

// finalize runs on the worker that finished the point's last trial: it
// merges the workers' accumulators, aggregates, attaches the point's
// runtime record, and releases the state (returning its memory estimate to
// the recorder). Failed points skip aggregation but still settle the
// memory accounting.
func (p *point) finalize(rec *runRecorder) {
	var held int64 // accumulator bytes accounted to the recorder
	for _, a := range p.accs {
		if a != nil {
			held += a.approxBytes()
		}
	}
	defer rec.accumRelease(held)
	accs := p.accs
	p.accs, p.pair = nil, nil
	if p.failed.Load() {
		return
	}
	// Merging is order-insensitive integer state, so which accumulator
	// absorbs the others cannot change the aggregate: the one holding the
	// most keys does, which re-inserts the fewest.
	var acc *Accum
	for _, a := range accs {
		if a != nil && (acc == nil || len(a.Counts) > len(acc.Counts)) {
			acc = a
		}
	}
	for _, a := range accs {
		if a != nil && a != acc {
			if err := acc.merge(a); err != nil {
				// Unreachable by construction — every per-worker
				// accumulator of a point shares one layout — but a merge
				// refusal must fail the point, not corrupt it.
				p.recordErr(p.lo, err)
				return
			}
		}
	}
	if acc == nil {
		acc = p.newAccum() // no trial ran here: an empty shard range or an exact point
	}
	if p.capture {
		p.snap = p.makeSnapshot(acc)
	}
	if p.fullRange() {
		p.agg = p.aggregate(acc)
	}
	// Runtime is a trial-execution record; an exact point never starts a
	// trial, so it carries none.
	if p.fullRange() && !p.exact {
		wall := rec.sinceNS() - (p.startNS.Load() - 1)
		if wall < 1 {
			wall = 1
		}
		p.agg.Runtime = &obs.PointMetrics{
			WallMS:       float64(wall) / 1e6,
			TrialsPerSec: float64(p.sc.Trials) / (float64(wall) / 1e9),
		}
	}
	if p.done != nil {
		if err := p.done(p.idx, p.snap); err != nil {
			p.recordErr(p.lo, err)
		}
	}
	if p.result != nil && p.fullRange() && !p.failed.Load() {
		p.result(p.idx, p.agg)
	}
}

// fullRange reports whether this process runs the point's every trial —
// partial (sharded) ranges export state only and never aggregate.
func (p *point) fullRange() bool { return p.lo == 0 && p.hi == p.sc.Trials }

// makeSnapshot exports the point's identity, range and merged accumulator.
func (p *point) makeSnapshot(acc *Accum) *PointSnapshot {
	return &PointSnapshot{
		Name:     p.sc.Name,
		Scenario: p.sc,
		SpecHash: p.hash,
		Trials:   p.sc.Trials,
		TrialLo:  p.lo,
		TrialHi:  p.hi,
		Accum:    acc,
	}
}

// aggregate turns the point's merged full-range accumulator into its
// Aggregate: an exact point's comes from the analysis (its accumulator is
// empty but layout-valid, so shard merges work unchanged), any other from
// the samples. Unsharded runs and shard merges both finalize through it,
// which keeps their documents byte-identical.
func (p *point) aggregate(acc *Accum) Aggregate {
	if p.exact {
		return aggregateAnalysis(p.sc, p.b, p.horizon)
	}
	return acc.aggregate(p.sc, p.b, p.quantized)
}

// exactEligible gates the exact-analysis fast path: the coverage analysis
// answers only the deterministic quiet-channel pair question, so every
// stochastic ingredient must be absent. Each rejection names what would
// have required Monte-Carlo trials — silently falling back would defeat
// the point of asking for an exact answer.
func exactEligible(sc Scenario, b *built) error {
	switch {
	case sc.Population != 2:
		return fmt.Errorf("engine: scenario %q: exact mode answers the pair workload only; a population of %d interacts stochastically and needs Monte-Carlo trials", sc.Name, sc.Population)
	case sc.Churn != nil:
		return fmt.Errorf("engine: scenario %q: exact mode cannot answer churn — arrivals are a stochastic process; drop the churn spec or run Monte-Carlo trials", sc.Name)
	case sc.Channel != (ChannelSpec{}):
		return fmt.Errorf("engine: scenario %q: exact mode models a quiet channel; collisions, half-duplex, truncation and jitter need Monte-Carlo trials", sc.Name)
	case b.Mode == modeMultiChannelGroup:
		return fmt.Errorf("engine: scenario %q: exact mode cannot answer kind %q — crowd traffic collides stochastically; use kind \"multichannel\" for the pair question", sc.Name, sc.Protocol.Kind)
	case !b.Analysis.Deterministic:
		return fmt.Errorf("engine: scenario %q: exact mode needs a deterministic schedule; this one covers only %.4f of phase offsets, so latency is a distribution with failure mass — run Monte-Carlo trials", sc.Name, b.Analysis.CoveredFraction)
	}
	return nil
}

// EffectiveScenario folds the run options into sc and validates the
// result: opt.Trials, when > 0, overrides the trial count, opt.Exact sets
// sc.Exact, and an exact scenario runs zero trials. The returned scenario
// is the one a run executes, journals and reports; the daemon validates
// submitted jobs with it.
func EffectiveScenario(sc Scenario, opt Options) (Scenario, error) {
	if opt.Trials > 0 {
		sc.Trials = opt.Trials
	}
	if opt.Exact {
		sc.Exact = true
	}
	if sc.Exact {
		sc.Trials = 0
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// prepare validates and materializes one scenario into a schedulable point,
// analyzing a build-cache miss on ws.
func prepare(sc Scenario, opt Options, ws *coverage.Workspace) (*point, error) {
	// The effective spec records the truth: an exact point runs zero
	// trials, and the empty trial range below makes the feeder finalize it
	// directly.
	sc, err := EffectiveScenario(sc, opt)
	if err != nil {
		return nil, err
	}
	b, err := build(sc.Protocol, sc.Population, ws)
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
	}
	if sc.Exact {
		if err := exactEligible(sc, b); err != nil {
			return nil, err
		}
	}
	// Group and churn workloads instantiate every device from E's
	// schedule, so a protocol with distinct E/F roles cannot express them.
	if (sc.Population > 2 || sc.Churn != nil) && !b.Symmetric {
		return nil, fmt.Errorf("engine: scenario %q: group and churn workloads need a symmetric protocol", sc.Name)
	}
	horizon, err := resolveHorizon(sc, b)
	if err != nil {
		return nil, err
	}
	stay := timebase.Ticks(0)
	if sc.Churn != nil {
		stay, err = resolveStay(sc, b)
		if err != nil {
			return nil, err
		}
	}
	lo, hi := 0, sc.Trials
	if !opt.shard.IsZero() {
		lo, hi = opt.shard.Range(sc.Trials)
	}
	p := &point{
		sc:         sc,
		b:          b,
		stay:       stay,
		horizon:    horizon,
		hash:       sc.Hash(),
		quantized:  quantized(sc),
		exact:      sc.Exact,
		lo:         lo,
		hi:         hi,
		capture:    opt.capture,
		done:       opt.pointDone,
		result:     opt.PointResult,
		kernelOnly: opt.kernelOnly,
		cfg: sim.Config{
			Horizon:          horizon,
			Collisions:       sc.Channel.Collisions,
			HalfDuplex:       sc.Channel.HalfDuplex,
			TruncatedWindows: sc.Channel.TruncatedWindows,
			Jitter:           sc.Channel.Jitter,
		},
	}
	p.remaining.Store(int64(hi - lo))
	return p, nil
}

// newAccum lays out an empty accumulator for the point.
func (p *point) newAccum() *Accum {
	return newAccum(p.horizon, keyWidth(p.horizon, p.quantized), p.contactWorst(), p.chanCount())
}

// maxPairTableBytes caps a point's latency table, at sim.TableEntryBytes
// per entry: quickstart's 10,000 entries come to ~160 KB, while a one-way
// Disco(37, 43) pair would need ~1M entries, ~16 MB, and runs on the
// kernel.
const maxPairTableBytes = 4 << 20

// begin materializes the point's trial state as the feeder starts it: one
// accumulator slot per worker and, for the pair kinds, the prepared pair,
// tabulated when tabulates says so. finalize releases both.
func (p *point) begin(workers int) {
	p.accs = make([]*Accum, workers)
	var err error
	switch {
	case p.b.Mode == modeMultiChannel:
		p.pair, err = sim.NewMultiChannelPair(p.b.MC)
	case p.b.Mode == modePair && p.sc.Population == 2 && p.sc.Churn == nil:
		// The pair workload measures the one-way direction the bounds
		// speak about: E's beacons against F's windows, stripped so that
		// neither device's other half participates.
		p.pair = sim.NewPair(schedule.Device{B: p.b.E.B}, schedule.Device{C: p.b.F.C})
	}
	if err == nil && p.tabulates() {
		err = p.pair.Tabulate()
	}
	if err != nil {
		p.recordErr(p.lo, err)
	}
}

// tabulates is the gate on a pair point's latency table: the point's
// channel is quiet, and its trial range is at least the table's entry
// count (so building the table costs less than the kernel runs it saves)
// within maxPairTableBytes. It reads what the point knows before building
// anything; every path is bit-identical, so the gate never changes a
// result, even where shards of one point fall on either side of it.
func (p *point) tabulates() bool {
	n := p.b.TableEntries
	return p.pair != nil && !p.kernelOnly && p.sc.Channel == (ChannelSpec{}) &&
		n > 0 && p.hi-p.lo >= n && n*sim.TableEntryBytes <= maxPairTableBytes
}

// contactWorst is the contact-bin scale: the exact worst case, when the
// schedule is deterministic. Zero disables contact binning. Kept in ticks
// so Accum stays all-integer (mergeable state must be exact); the one
// consumer divides in float space at use.
func (p *point) contactWorst() timebase.Ticks {
	if p.sc.Churn == nil || p.b.WorstTwoWay <= 0 {
		return 0
	}
	return p.b.WorstTwoWay
}

// chanCount is the advertising-channel count for per-channel discovery
// and collision accounting; zero disables it.
func (p *point) chanCount() int {
	if p.b.Mode != modeMultiChannel && p.b.Mode != modeMultiChannelGroup {
		return 0
	}
	return p.b.MC.Channels
}

// workItem addresses one contiguous window of trials of one point. Workers
// claim whole windows, amortizing the per-item scheduling cost (channel
// receive, accumulator lookup, point bookkeeping) over batchSize trials;
// accumulators are order-insensitive integer state, so batching cannot
// change any aggregate.
type workItem struct {
	p      *point
	lo, hi int // half-open trial window
}

// batchCap bounds a batch: large enough to amortize scheduling, small
// enough that a point still spreads across workers and progress stays
// responsive.
const batchCap = 256

// batchSize picks the trial-window size for a point: an even split into
// ~4 windows per worker (so the tail imbalance stays small), clamped to
// [1, batchCap]. The size depends only on the trial count and worker
// count, never on scheduling, so windows are deterministic.
func batchSize(trials, workers int) int {
	n := trials / (4 * workers)
	if n < 1 {
		return 1
	}
	if n > batchCap {
		return batchCap
	}
	return n
}

// runMany is the scenario-level scheduler: it prepares every scenario,
// then runs all their trials over ONE shared worker pool, so small and
// large sweep points fill the same cores instead of executing scenario by
// scenario. Trials fold into per-worker accumulators merged when the
// point's last trial completes; the merge is order-insensitive integer
// state, so every aggregate is bit-identical for any worker count.
func runMany(scenarios []Scenario, opt Options) ([]Aggregate, error) {
	points, err := runPoints(scenarios, opt)
	if err != nil {
		return nil, err
	}
	aggs := make([]Aggregate, len(points))
	for i, p := range points {
		aggs[i] = p.agg
	}
	return aggs, nil
}

// runPoints is runMany's engine room, shared with the shard and journal
// layers: it runs every point's trial range (the shard's slice of it, when
// Options.shard is set) and returns the finalized points — aggregates on
// full ranges, captured snapshots when Options.capture is set.
func runPoints(scenarios []Scenario, opt Options) ([]*point, error) {
	workers := opt.workers()
	ctx := opt.ctx()
	rec := newRunRecorder(workers, len(scenarios))

	// Preparation (schedule build + exact coverage analysis) is itself
	// sharded: on a sweep whose axes vary protocol parameters, every grid
	// point is a build-cache miss, and analyzing them serially would leave
	// the pool idle. Errors are still reported in input order.
	points := make([]*point, len(scenarios))
	prepErrs := make([]error, len(scenarios))
	var next atomic.Int64
	var pw sync.WaitGroup
	for w := 0; w < workers; w++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			// Each preparing goroutine analyzes its misses on its own
			// workspace, which dies with this run's prepare phase: no
			// process-wide pool keeps one between runs.
			var ws coverage.Workspace
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scenarios) {
					return
				}
				points[i], prepErrs[i] = prepare(scenarios[i], opt, &ws)
			}
		}()
	}
	pw.Wait()
	for _, err := range prepErrs {
		if err != nil {
			return nil, err
		}
	}
	for i, p := range points {
		p.idx = i
		rec.trialsTotal += int64(p.hi - p.lo)
	}
	// A context that died before any trial ran aborts here, so a cancelled
	// caller never pays for scheduling a pool that would only be torn down.
	if ctx.Err() != nil {
		return nil, canceledErr(rec)
	}
	stopProgress := rec.startProgress(opt)

	// An all-exact run (or a shard whose every range is empty) has no
	// trials to schedule: the feeder loop below would only finalize each
	// point, so run it inline and skip spawning the trial pool entirely —
	// the exact fast path answers a sweep in microseconds and must not pay
	// goroutine startup for a pool that would receive nothing.
	if rec.trialsTotal == 0 {
		for _, p := range points {
			p.finalize(rec)
			rec.pointsDone.Add(1)
		}
		stopProgress()
		if opt.Metrics != nil {
			*opt.Metrics = rec.metrics(points)
		}
		for _, p := range points {
			if p.err != nil {
				return nil, fmt.Errorf("engine: scenario %q trial %d: %w", p.sc.Name, p.errTrial, p.err)
			}
		}
		return points, nil
	}

	work := make(chan workItem, 4*workers)
	go func() {
		for _, p := range points {
			// A shard of fewer trials than shards leaves some ranges
			// empty; no worker ever decrements such a point, so the
			// feeder finalizes it (to an empty snapshot) directly.
			if p.hi == p.lo {
				p.finalize(rec)
				rec.pointsDone.Add(1)
				continue
			}
			// Materialized here, not in prepare: the bounded channel
			// throttles the feeder, so only in-flight points hold their
			// trial state.
			p.begin(workers)
			bs := batchSize(p.hi-p.lo, workers)
			for t := p.lo; t < p.hi; t += bs {
				hi := t + bs
				if hi > p.hi {
					hi = p.hi
				}
				// A cancelled run stops feeding: the select keeps the
				// feeder from deadlocking on the bounded channel when
				// workers are already bailing out.
				select {
				case work <- workItem{p, t, hi}:
				case <-ctx.Done():
					close(work)
					return
				}
			}
		}
		close(work)
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns one simulation arena, reused across every
			// trial it runs (see sim.Scratch for the ownership rule) and
			// kept in the pool for later runs unless it grew large.
			scr := arenas.Get().(*sim.Scratch)
			defer releaseArena(scr)
			for it := range work {
				p := it.p
				// Cancellation is honored between trial windows: an
				// already-claimed window is abandoned whole (its point is
				// marked canceled and its trial accounting settled), and
				// in-flight trials of other workers finish their own
				// windows — nothing stops mid-trial.
				if ctx.Err() != nil {
					p.recordErr(it.lo, ErrCanceled)
					if p.remaining.Add(int64(it.lo-it.hi)) == 0 {
						p.finalize(rec)
						rec.pointsDone.Add(1)
					}
					continue
				}
				t0 := rec.sinceNS()
				p.startNS.CompareAndSwap(0, t0+1)
				// Per-batch state shared by the window's trials: the
				// worker's accumulator is fetched (or created) once, and
				// its growth is accounted once.
				acc := p.accs[w]
				var size int64
				if acc == nil {
					acc = p.newAccum()
					p.accs[w] = acc
				} else {
					size = acc.approxBytes()
				}
				for trial := it.lo; trial < it.hi; trial++ {
					if err := p.runTrial(trial, scr, acc); err != nil {
						p.recordErr(trial, err)
					}
				}
				// Counted per window, not per trial: a claimed window
				// always completes whole, so progress and the
				// cancellation message read the same totals.
				rec.trialsDone.Add(int64(it.hi - it.lo))
				rec.accumAdd(acc.approxBytes() - size)
				// The worker finishing the point's last trial aggregates
				// and releases it. The atomic counter orders every
				// accs[w] write before the final decrement, and the
				// order-insensitive accumulator merge is independent of
				// which worker finalizes.
				if p.remaining.Add(int64(it.lo-it.hi)) == 0 {
					p.finalize(rec)
					rec.pointsDone.Add(1)
				}
				rec.busyNS[w].Add(rec.sinceNS() - t0)
			}
		}(w)
	}
	wg.Wait()
	stopProgress()
	if opt.Metrics != nil {
		*opt.Metrics = rec.metrics(points)
	}

	// The typed cancellation error wins over the per-point errors it
	// induced: a caller asking errors.Is(err, ErrCanceled) must see the
	// abort, not whichever point happened to record it first.
	if ctx.Err() != nil {
		return nil, canceledErr(rec)
	}
	for _, p := range points {
		if p.err != nil {
			return nil, fmt.Errorf("engine: scenario %q trial %d: %w", p.sc.Name, p.errTrial, p.err)
		}
	}
	return points, nil
}

// RunScenario executes one scenario: builds (or recalls) its schedules,
// resolves the horizon, shards the trials over the worker pool, and
// aggregates. Results are bit-identical for any worker count.
func RunScenario(sc Scenario, opt Options) (Aggregate, error) {
	aggs, err := runMany([]Scenario{sc}, opt)
	if err != nil {
		return Aggregate{}, err
	}
	return aggs[0], nil
}

// RunSuite executes the scenarios concurrently over one shared worker pool
// and returns their aggregates in input order. Per-scenario errors abort
// the suite.
func RunSuite(scenarios []Scenario, opt Options) ([]Aggregate, error) {
	return runMany(scenarios, opt)
}

// arenas keeps simulation arenas across runs, so a small job reuses the
// buffers an earlier run grew instead of regrowing them from empty. Reuse
// is bit-identical by sim.Scratch's contract.
var arenas = sync.Pool{New: func() any { return sim.NewScratch() }}

// maxPooledArena bounds the arenas the pool keeps. Arenas never shrink and
// a busy daemon keeps its pool alive, so a large crowd's arena (its
// first-reception table alone is devices² × 32 bytes) would otherwise stay
// for as long as the daemon runs. busynetwork's 20 devices hold about
// 0.65 MB; the presets' other crowds and the pairs far less.
const maxPooledArena = 2 << 20

// releaseArena returns scr to the pool if it is small enough to keep, and
// otherwise leaves it to the garbage collector.
func releaseArena(scr *sim.Scratch) {
	if scr.Footprint() <= maxPooledArena {
		arenas.Put(scr)
	}
}

// runTrial executes one trial on its own deterministic RNG stream, drawn
// from the worker's arena, and adds its outcome into the worker's
// accumulator: reseeding the arena's splitmix source in place yields the
// exact stream a fresh rand.New(sim.NewFastSource(seed)) would (the default
// math/rand source costs ~25 µs of seeding per instantiation, which
// dominated the per-trial budget), and the sim buffers are reused across
// the worker's trials. A failed trial adds nothing.
func (p *point) runTrial(trial int, scr *sim.Scratch, acc *Accum) error {
	sc, b, cfg, stay := p.sc, p.b, p.cfg, p.stay
	rng := scr.Rand(trialSeed(p.hash, trial))
	switch {
	case b.Mode == modeSlotGrid:
		at, ok, err := b.SlotPair.TrialScratch(cfg.Horizon, rng, scr)
		if err != nil {
			return err
		}
		acc.addOutcome(at, ok)

	case b.Mode == modeMultiChannelGroup || (sc.Churn == nil && sc.Population > 2):
		// The crowd kinds: static groups on one or several channels and
		// multi-channel churn share one outcome and one fold. Per-channel
		// rows exist only for the multi-channel kinds (acc's channel
		// counters are empty otherwise).
		var res sim.ChurnTrialResult
		var err error
		switch {
		case b.Mode != modeMultiChannelGroup:
			res.GroupTrialResult, err = sim.GroupTrialScratch(b.E, sc.Population, cfg, rng, scr)
		case sc.Churn != nil:
			res, err = sim.MultiChannelChurnTrialScratch(b.MC, sc.Population, stay, cfg, rng, scr)
		default:
			res.GroupTrialResult, err = sim.MultiChannelGroupTrialScratch(b.MC, sc.Population, cfg, rng, scr)
		}
		if err != nil {
			return err
		}
		for _, lat := range res.Samples {
			acc.add(lat)
		}
		acc.Misses += int64(res.Misses)
		acc.addContacts(res.Contacts)
		acc.Transmissions += int64(res.Transmissions)
		acc.Collided += int64(res.Collided)
		for c := range acc.ChanDisc {
			acc.ChanDisc[c] += int64(res.Discoveries[c])
			acc.ChanTx[c] += int64(res.PerChannel[c].Transmissions)
			acc.ChanColl[c] += int64(res.PerChannel[c].Collided)
		}

	case sc.Churn != nil:
		contacts, res, err := sim.ChurnTrialScratch(b.E, sc.Population, stay, cfg, rng, scr)
		if err != nil {
			return err
		}
		acc.addContacts(contacts)
		acc.Transmissions += int64(res.Transmissions)
		acc.Collided += int64(res.Collided)
		for _, c := range contacts {
			acc.addOutcome(c.Latency, c.Discovered)
		}

	default:
		// Both pair kinds, on the point's prepared pair (begin):
		// per-channel discovery rows exist only for the multi-channel pair
		// (acc's channel counters are empty otherwise).
		at, ch, ok, err := p.pair.TrialScratch(cfg, rng, scr)
		if err != nil {
			return err
		}
		acc.addOutcome(at, ok)
		if ok && len(acc.ChanDisc) > 0 {
			acc.ChanDisc[ch]++
		}
	}
	return nil
}

func resolveHorizon(sc Scenario, b *built) (timebase.Ticks, error) {
	h := sc.Horizon
	switch {
	case h.Ticks > 0:
		return h.Ticks, nil
	case h.WorstMultiple > 0:
		if b.WorstTwoWay == 0 {
			return 0, fmt.Errorf("engine: scenario %q: worst_multiple horizon needs a deterministic schedule", sc.Name)
		}
		return timebase.Ticks(h.WorstMultiple * float64(b.WorstTwoWay)), nil
	case h.PeriodMultiple > 0:
		return timebase.Ticks(h.PeriodMultiple * float64(b.maxPeriod())), nil
	case b.WorstTwoWay > 0:
		return 3 * b.WorstTwoWay, nil
	default:
		return 20 * b.maxPeriod(), nil
	}
}

func resolveStay(sc Scenario, b *built) (timebase.Ticks, error) {
	ch := sc.Churn
	if ch.Stay > 0 {
		return ch.Stay, nil
	}
	if b.WorstTwoWay == 0 {
		return 0, fmt.Errorf("engine: scenario %q: stay_worst_multiple needs a deterministic schedule", sc.Name)
	}
	return timebase.Ticks(ch.StayWorstMultiple * float64(b.WorstTwoWay)), nil
}
