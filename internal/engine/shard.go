package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coverage"
	"repro/internal/durable"
	"repro/internal/strictjson"
)

// This file is the shard/merge execution layer: it splits any scenario
// list, sweep, or adaptive round across processes by trial-index range,
// serializes each process's accumulator state as a versioned ndshard/2
// snapshot, and merges snapshot sets into results byte-identical to an
// unsharded run.
//
// Why this is exact and not approximate: the engine's determinism contract
// already makes every trial independent of scheduling — trial t of a
// scenario runs on the RNG stream seeded from (spec hash, t) no matter
// which worker or process executes it. Aggregation is a function of one
// all-integer accumulator (accum.go), which is closed under merging
// disjoint trial ranges, so shard k of n simply runs the
// contiguous range [⌊(k−1)·T/n⌋, ⌊k·T/n⌋) and exports its state; the merge
// reassembles the full-range state and runs the same finalizer an
// unsharded run would. Byte-identity (after StripRuntime) is asserted by
// the property harness in shardprop_test.go and by the CI shard-matrix
// job.
//
// Adaptive searches shard by round: a refinement round's grid depends on
// every previous round's aggregates, so one pass cannot run the whole
// search. Instead each shard replays the deterministic search against a
// pool of already-merged evaluations, finds the first round the pool
// cannot answer, and runs its trial range of exactly those scenarios; the
// merge combines the shards into full evaluations, appends them to the
// pool, and replays — emitting either the final AdaptiveResult or a
// continuation snapshot for the next shard round.

// SnapshotCodec is the ndshard serialization version. Decoding rejects
// every other value: snapshot state is accumulator internals, and reading
// a future layout as the current one would corrupt results silently.
const SnapshotCodec = "ndshard/2"

// Snapshot kinds: what produced the contained point snapshots, which
// decides how a merge finalizes them.
const (
	// SnapshotSuite marks a scenario-list (suite/preset/spec-file) shard.
	SnapshotSuite = "suite"
	// SnapshotSweep marks a sweep-grid shard.
	SnapshotSweep = "sweep"
	// SnapshotAdaptive marks an adaptive-search shard or continuation.
	SnapshotAdaptive = "adaptive"
	// SnapshotJournal marks a journal entry: one completed point at full
	// trial range, persisted for crash resume.
	SnapshotJournal = "journal"
)

// A ShardSpec selects trial-range shard k of n (1-based): the contiguous
// trial range [⌊(k−1)·T/n⌋, ⌊k·T/n⌋) of every scenario. The n ranges
// partition [0, T) exactly; a range may be empty when n exceeds a
// scenario's trial count.
type ShardSpec struct {
	K int `json:"k"`
	N int `json:"n"`
}

// ParseShard parses the CLI form "k/n".
func ParseShard(s string) (ShardSpec, error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("engine: shard %q: want \"k/n\" with integers", s)
	}
	k, kerr := strconv.Atoi(ks)
	n, nerr := strconv.Atoi(ns)
	if kerr != nil || nerr != nil {
		return ShardSpec{}, fmt.Errorf("engine: shard %q: want \"k/n\" with integers", s)
	}
	sh := ShardSpec{K: k, N: n}
	if err := sh.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return sh, nil
}

// IsZero reports the unset spec (no sharding).
func (s ShardSpec) IsZero() bool { return s.K == 0 && s.N == 0 }

// Validate checks 1 ≤ k ≤ n.
func (s ShardSpec) Validate() error {
	if s.N < 1 || s.K < 1 || s.K > s.N {
		return fmt.Errorf("engine: shard %d/%d: want 1 ≤ k ≤ n", s.K, s.N)
	}
	return nil
}

// Range returns the shard's half-open trial range [lo, hi) of a
// trials-sized scenario. Ranges of consecutive k are contiguous and
// together cover [0, trials) exactly.
func (s ShardSpec) Range(trials int) (lo, hi int) {
	lo = int(int64(s.K-1) * int64(trials) / int64(s.N))
	hi = int(int64(s.K) * int64(trials) / int64(s.N))
	return lo, hi
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// A PointSnapshot is one scenario's accumulator state over one trial
// range: the full effective scenario (so the merge can rebuild schedules
// and re-derive the horizon), its identity hash (guarding against merging
// states of different specs), the range, and the accumulator.
type PointSnapshot struct {
	Name     string   `json:"name"`
	Scenario Scenario `json:"scenario"`
	SpecHash uint64   `json:"spec_hash"`
	Trials   int      `json:"trials"`
	TrialLo  int      `json:"trial_lo"`
	TrialHi  int      `json:"trial_hi"`
	Accum    *Accum   `json:"accum"`
}

// validate checks the point against its own embedded scenario and the
// snapshot's shard spec (zero = the point must cover the full range).
func (ps *PointSnapshot) validate(shard ShardSpec) error {
	if err := ps.Scenario.Validate(); err != nil {
		return err
	}
	if ps.Name != ps.Scenario.Name {
		return fmt.Errorf("point name %q does not match scenario name %q", ps.Name, ps.Scenario.Name)
	}
	if h := ps.Scenario.Hash(); ps.SpecHash != h {
		return fmt.Errorf("point %q: spec hash %#x does not match scenario (%#x)", ps.Name, ps.SpecHash, h)
	}
	if ps.Trials != ps.Scenario.Trials {
		return fmt.Errorf("point %q: trials %d does not match scenario (%d)", ps.Name, ps.Trials, ps.Scenario.Trials)
	}
	lo, hi := 0, ps.Trials
	if !shard.IsZero() {
		lo, hi = shard.Range(ps.Trials)
	}
	if ps.TrialLo != lo || ps.TrialHi != hi {
		return fmt.Errorf("point %q: trial range [%d, %d) does not match shard %s of %d trials (want [%d, %d))",
			ps.Name, ps.TrialLo, ps.TrialHi, shard, ps.Trials, lo, hi)
	}
	if ps.Accum == nil {
		return fmt.Errorf("point %q carries no accumulator", ps.Name)
	}
	if err := ps.Accum.validate(); err != nil {
		return fmt.Errorf("point %q: accumulator: %w", ps.Name, err)
	}
	return nil
}

// A Snapshot is the ndshard/2 document one shard process emits and the
// merge consumes: the codec version, what kind of run produced it, the
// shard coordinates, and one PointSnapshot per point in run order. Adaptive
// snapshots additionally carry the search spec and the pool of already
// fully-merged evaluations (Evaluations), which every shard of a round must
// share; an adaptive continuation (the merge's output when the search needs
// more rounds) has Evaluations only and a zero Shard.
type Snapshot struct {
	Codec string    `json:"codec"`
	Kind  string    `json:"kind"`
	Label string    `json:"label,omitempty"`
	Shard ShardSpec `json:"shard,omitempty"`

	Adaptive    *AdaptiveSpec   `json:"adaptive,omitempty"`
	Evaluations []PointSnapshot `json:"evaluations,omitempty"`

	Points []PointSnapshot `json:"points,omitempty"`
}

// Validate checks the document end to end: codec version, kind, shard
// bounds, and every contained point snapshot (trial ranges against the
// shard spec, spec hashes against the embedded scenarios, accumulator
// invariants). Decoding runs it, so no malformed snapshot reaches the
// merge or finalization layers.
func (s *Snapshot) Validate() error {
	if err := checkSnapshotCodec(s.Codec); err != nil {
		return err
	}
	switch s.Kind {
	case SnapshotSuite, SnapshotSweep, SnapshotAdaptive, SnapshotJournal:
	default:
		return fmt.Errorf("engine: unknown snapshot kind %q", s.Kind)
	}
	if s.Shard.IsZero() {
		if s.Kind != SnapshotAdaptive || len(s.Points) > 0 {
			return fmt.Errorf("engine: snapshot without a shard spec must be an adaptive continuation")
		}
	} else if err := s.Shard.Validate(); err != nil {
		return err
	}
	if s.Kind != SnapshotAdaptive && (s.Adaptive != nil || len(s.Evaluations) > 0) {
		return fmt.Errorf("engine: %s snapshot must not carry adaptive search state", s.Kind)
	}
	if s.Kind == SnapshotAdaptive && s.Adaptive == nil {
		return fmt.Errorf("engine: adaptive snapshot needs its search spec")
	}
	names := make(map[string]bool, len(s.Points))
	for i := range s.Points {
		if err := s.Points[i].validate(s.Shard); err != nil {
			return fmt.Errorf("engine: snapshot point %d: %w", i, err)
		}
		if names[s.Points[i].Name] {
			return fmt.Errorf("engine: snapshot repeats point %q", s.Points[i].Name)
		}
		names[s.Points[i].Name] = true
	}
	for i := range s.Evaluations {
		// Pooled evaluations are always full-range (they are merged).
		if err := s.Evaluations[i].validate(ShardSpec{}); err != nil {
			return fmt.Errorf("engine: snapshot evaluation %d: %w", i, err)
		}
	}
	return nil
}

// checkSnapshotCodec refuses every codec but this build's.
func checkSnapshotCodec(codec string) error {
	if codec != SnapshotCodec {
		return fmt.Errorf("engine: unsupported snapshot codec %q (this build reads %q)", codec, SnapshotCodec)
	}
	return nil
}

// EncodeSnapshot writes the snapshot as deterministic, indented ndshard/2
// JSON.
func EncodeSnapshot(w io.Writer, s Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return writeIndentedJSON(w, s)
}

// DecodeSnapshot reads and validates one ndshard/2 snapshot. A document of
// any other codec is refused as such before its fields are read, so an
// older layout reports its version rather than its unknown fields.
// Unknown fields, trailing data and every accumulator-invariant violation
// are rejected with an error; no input panics. On accepted documents
// encode∘decode is a byte fixed point.
func DecodeSnapshot(r io.Reader) (Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Snapshot{}, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	var head struct {
		Codec string `json:"codec"`
	}
	if json.Unmarshal(data, &head) == nil {
		if err := checkSnapshotCodec(head.Codec); err != nil {
			return Snapshot{}, err
		}
	}
	var s Snapshot
	if err := strictjson.Decode(bytes.NewReader(data), &s); err != nil {
		return Snapshot{}, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// ReadSnapshotFile loads and validates one snapshot file.
func ReadSnapshotFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	s, err := DecodeSnapshot(f)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshotFile writes the snapshot to path durably (durable.WriteFile:
// a crash mid-write never leaves a torn or empty snapshot behind).
func WriteSnapshotFile(path string, s Snapshot) error {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, s); err != nil {
		return err
	}
	return durable.WriteFile(path, buf.Bytes())
}

// runShard executes the shard's trial range of every scenario and captures
// one PointSnapshot per point instead of aggregates.
func runShard(label, kind string, scenarios []Scenario, shard ShardSpec, opt Options) (Snapshot, error) {
	if err := shard.Validate(); err != nil {
		return Snapshot{}, err
	}
	o := opt
	o.shard = shard
	o.capture = true
	points, err := runPoints(scenarios, o)
	if err != nil {
		return Snapshot{}, err
	}
	snap := Snapshot{Codec: SnapshotCodec, Kind: kind, Label: label, Shard: shard, Points: make([]PointSnapshot, len(points))}
	for i, p := range points {
		snap.Points[i] = *p.snap
	}
	if opt.Metrics != nil {
		opt.Metrics.ShardK = shard.K
		opt.Metrics.ShardN = shard.N
		opt.Metrics.SnapshotPoints = len(points)
	}
	return snap, nil
}

// RunScenariosShard runs trial-range shard k/n of a scenario list and
// returns the ndshard/2 snapshot to feed MergeSnapshots. The label names
// the run (suite name, spec file); the merged SuiteResult carries it.
func RunScenariosShard(label string, scenarios []Scenario, shard ShardSpec, opt Options) (Snapshot, error) {
	return runShard(label, SnapshotSuite, scenarios, shard, opt)
}

// RunSweepShard expands the sweep and runs trial-range shard k/n of every
// grid point, returning the snapshot to feed MergeSnapshots.
func RunSweepShard(sp SweepSpec, shard ShardSpec, opt Options) (Snapshot, error) {
	scenarios, err := sp.Expand()
	if err != nil {
		return Snapshot{}, err
	}
	return runShard(sp.Name, SnapshotSweep, scenarios, shard, opt)
}

// validateShardSet checks a snapshot set is mergeable: one codec, one kind,
// one label, the same point list, and shard specs that are exactly 1..n of
// one n. Returns the set sorted by shard index.
func validateShardSet(snaps []Snapshot) ([]Snapshot, error) {
	if len(snaps) == 0 {
		return nil, errors.New("engine: no snapshots to merge")
	}
	sorted := append([]Snapshot(nil), snaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard.K < sorted[j].Shard.K })
	first := sorted[0]
	n := first.Shard.N
	if len(sorted) != n {
		return nil, fmt.Errorf("engine: merge needs all %d shards, got %d snapshots", n, len(sorted))
	}
	for i, s := range sorted {
		if s.Codec != SnapshotCodec {
			return nil, fmt.Errorf("engine: snapshot %d: unsupported codec %q", i, s.Codec)
		}
		if s.Kind != first.Kind || s.Label != first.Label {
			return nil, fmt.Errorf("engine: snapshot %d is %s %q, want %s %q — snapshots from different runs",
				i, s.Kind, s.Label, first.Kind, first.Label)
		}
		if s.Shard.N != n || s.Shard.K != i+1 {
			return nil, fmt.Errorf("engine: shard set is not exactly 1/%[1]d..%[1]d/%[1]d (got %s)", n, s.Shard)
		}
		if len(s.Points) != len(first.Points) {
			return nil, fmt.Errorf("engine: shard %s has %d points, shard %s has %d",
				s.Shard, len(s.Points), first.Shard, len(first.Points))
		}
	}
	return sorted, nil
}

// mergeShardPoints reassembles the full-range PointSnapshots from a
// validated, sorted shard set: per point, the accumulators merge through
// the layout-guarded merge into a fresh one (the inputs stay untouched);
// spec hashes and trial-range contiguity are enforced.
func mergeShardPoints(sorted []Snapshot) ([]PointSnapshot, error) {
	out := make([]PointSnapshot, len(sorted[0].Points))
	for i := range out {
		base := sorted[0].Points[i]
		merged := base
		b := base.Accum
		merged.Accum = newAccum(b.Horizon, b.Width, b.Worst, len(b.ChanDisc))
		if err := merged.Accum.merge(b); err != nil {
			return nil, fmt.Errorf("engine: point %q: %w", base.Name, err)
		}
		for _, s := range sorted[1:] {
			ps := s.Points[i]
			if ps.Name != merged.Name || ps.SpecHash != merged.SpecHash || ps.Trials != merged.Trials {
				return nil, fmt.Errorf("engine: shard %s point %d is %q (hash %#x, %d trials), want %q (hash %#x, %d trials) — snapshots from different runs",
					s.Shard, i, ps.Name, ps.SpecHash, ps.Trials, merged.Name, merged.SpecHash, merged.Trials)
			}
			if ps.TrialLo != merged.TrialHi {
				return nil, fmt.Errorf("engine: point %q: shard %s starts at trial %d, want %d (gap or overlap)",
					ps.Name, s.Shard, ps.TrialLo, merged.TrialHi)
			}
			if err := merged.Accum.merge(ps.Accum); err != nil {
				return nil, fmt.Errorf("engine: point %q: %w", ps.Name, err)
			}
			merged.TrialHi = ps.TrialHi
		}
		if merged.TrialLo != 0 || merged.TrialHi != merged.Trials {
			return nil, fmt.Errorf("engine: point %q: merged range [%d, %d) does not cover the %d trials",
				merged.Name, merged.TrialLo, merged.TrialHi, merged.Trials)
		}
		out[i] = merged
	}
	return out, nil
}

// finalizePoint turns one full-range PointSnapshot into its Aggregate: it
// rebuilds the scenario's schedules and horizon exactly as prepare does,
// checks the state's layout against them, and runs the same finalizer an
// unsharded run uses (point.aggregate) — so the result is byte-identical by
// construction.
func finalizePoint(ps PointSnapshot) (Aggregate, error) {
	if err := ps.validate(ShardSpec{}); err != nil {
		return Aggregate{}, err
	}
	var ws coverage.Workspace
	p, err := prepare(ps.Scenario, Options{}, &ws)
	if err != nil {
		return Aggregate{}, err
	}
	// The payload must have exactly the layout this scenario derives:
	// horizon, key width, contact scale and channel count.
	if err := p.newAccum().sameLayout(ps.Accum); err != nil {
		return Aggregate{}, fmt.Errorf("engine: point %q: snapshot does not match its scenario: %w", ps.Name, err)
	}
	return p.aggregate(ps.Accum), nil
}

// MergeSnapshots merges a complete shard set (every shard 1..n of one
// suite or sweep run) into the final SuiteResult, byte-identical — after
// StripRuntime — to the document an unsharded run of the same scenarios
// would produce. Adaptive snapshot sets go through MergeAdaptiveSnapshots
// instead (their merge may need further shard rounds).
func MergeSnapshots(snaps []Snapshot) (SuiteResult, error) {
	sorted, err := validateShardSet(snaps)
	if err != nil {
		return SuiteResult{}, err
	}
	if sorted[0].Kind == SnapshotAdaptive {
		return SuiteResult{}, errors.New("engine: adaptive snapshots merge via MergeAdaptiveSnapshots")
	}
	merged, err := mergeShardPoints(sorted)
	if err != nil {
		return SuiteResult{}, err
	}
	res := SuiteResult{Suite: sorted[0].Label, Scenarios: make([]Aggregate, len(merged))}
	for i, ps := range merged {
		agg, err := finalizePoint(ps)
		if err != nil {
			return SuiteResult{}, err
		}
		res.Scenarios[i] = agg
	}
	return res, nil
}

// pendingEval is the control-flow error the replay evaluator raises when
// the pool cannot answer a round: it carries the scenarios the next shard
// round must run. runAdaptive propagates evaluator errors unchanged, so it
// surfaces intact.
type pendingEval struct {
	scenarios []Scenario
}

func (e *pendingEval) Error() string {
	return fmt.Sprintf("engine: adaptive round needs %d evaluations not yet in the snapshot pool", len(e.scenarios))
}

// replayAdaptive re-runs the deterministic search against a pool of
// already-computed aggregates keyed by scenario name (grid-point names
// encode the round and coordinates, so they are unique and stable). It
// returns either the finished result or the scenario batch of the first
// round the pool cannot answer.
func replayAdaptive(ap AdaptiveSpec, pool map[string]Aggregate) (AdaptiveResult, []Scenario, error) {
	res, err := runAdaptive(ap, func(scs []Scenario) ([]Aggregate, error) {
		aggs := make([]Aggregate, len(scs))
		var missing []Scenario
		for i, sc := range scs {
			agg, ok := pool[sc.Name]
			if !ok {
				missing = append(missing, sc)
				continue
			}
			aggs[i] = agg
		}
		if len(missing) > 0 {
			return nil, &pendingEval{scenarios: missing}
		}
		return aggs, nil
	})
	if err != nil {
		var pend *pendingEval
		if errors.As(err, &pend) {
			return AdaptiveResult{}, pend.scenarios, nil
		}
		return AdaptiveResult{}, nil, err
	}
	return res, nil, nil
}

// adaptiveSpecEqual compares two specs by canonical JSON — the comparison
// every shard/continuation consistency check uses.
func adaptiveSpecEqual(a, b AdaptiveSpec) bool {
	ja, aerr := json.Marshal(a)
	jb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ja, jb)
}

// evalPool finalizes a pooled evaluation list into aggregates keyed by
// point name.
func evalPool(evals []PointSnapshot) (map[string]Aggregate, error) {
	pool := make(map[string]Aggregate, len(evals))
	for _, ps := range evals {
		agg, err := finalizePoint(ps)
		if err != nil {
			return nil, err
		}
		pool[ps.Name] = agg
	}
	return pool, nil
}

// RunAdaptiveShard runs trial-range shard k/n of one adaptive round. prior
// is nil for the first round, else the continuation snapshot the previous
// MergeAdaptiveSnapshots emitted. Exactly one of the returns is set: a
// shard snapshot for the merge, or — when the pooled evaluations already
// complete the search, so there is nothing left to run — the final result.
func RunAdaptiveShard(ap AdaptiveSpec, shard ShardSpec, prior *Snapshot, opt Options) (*Snapshot, *AdaptiveResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ap.Validate(); err != nil {
		return nil, nil, err
	}
	var evals []PointSnapshot
	if prior != nil {
		if prior.Kind != SnapshotAdaptive || prior.Adaptive == nil {
			return nil, nil, errors.New("engine: -resume snapshot is not an adaptive continuation")
		}
		if !adaptiveSpecEqual(*prior.Adaptive, ap) {
			return nil, nil, fmt.Errorf("engine: continuation snapshot belongs to a different adaptive spec (%q)", prior.Adaptive.Name)
		}
		evals = prior.Evaluations
	}
	pool, err := evalPool(evals)
	if err != nil {
		return nil, nil, err
	}
	res, pending, err := replayAdaptive(ap, pool)
	if err != nil {
		return nil, nil, err
	}
	if pending == nil {
		return nil, &res, nil
	}
	snap, err := runShard(ap.Name, SnapshotAdaptive, pending, shard, opt)
	if err != nil {
		return nil, nil, err
	}
	snap.Adaptive = &ap
	snap.Evaluations = evals
	return &snap, nil, nil
}

// MergeAdaptiveSnapshots merges one adaptive shard round: it reassembles
// the round's full-range evaluations, appends them to the pool, and
// replays the search. When the search finishes it returns the final
// AdaptiveResult (byte-identical, after StripRuntime, to an unsharded
// RunAdaptive); otherwise it returns the continuation snapshot to pass as
// -resume to the next shard round.
func MergeAdaptiveSnapshots(snaps []Snapshot) (*AdaptiveResult, *Snapshot, error) {
	sorted, err := validateShardSet(snaps)
	if err != nil {
		return nil, nil, err
	}
	first := sorted[0]
	if first.Kind != SnapshotAdaptive {
		return nil, nil, fmt.Errorf("engine: %s snapshots merge via MergeSnapshots", first.Kind)
	}
	for i, s := range sorted[1:] {
		if !adaptiveSpecEqual(*s.Adaptive, *first.Adaptive) {
			return nil, nil, fmt.Errorf("engine: snapshot %d carries a different adaptive spec", i+1)
		}
		if !pointSetEqual(s.Evaluations, first.Evaluations) {
			return nil, nil, fmt.Errorf("engine: snapshot %d carries a different evaluation pool — shards from different rounds", i+1)
		}
	}
	merged, err := mergeShardPoints(sorted)
	if err != nil {
		return nil, nil, err
	}
	evals := append(append([]PointSnapshot(nil), first.Evaluations...), merged...)
	pool, err := evalPool(evals)
	if err != nil {
		return nil, nil, err
	}
	res, pending, err := replayAdaptive(*first.Adaptive, pool)
	if err != nil {
		return nil, nil, err
	}
	if pending != nil {
		cont := Snapshot{
			Codec:       SnapshotCodec,
			Kind:        SnapshotAdaptive,
			Label:       first.Label,
			Adaptive:    first.Adaptive,
			Evaluations: evals,
		}
		return nil, &cont, nil
	}
	return &res, nil, nil
}

// pointSetEqual compares two pooled evaluation lists by identity and
// range — enough to reject mixing shards of different rounds without
// comparing full accumulator payloads.
func pointSetEqual(a, b []PointSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].SpecHash != b[i].SpecHash ||
			a[i].Trials != b[i].Trials {
			return false
		}
	}
	return true
}
