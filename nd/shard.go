package nd

import (
	"repro/internal/engine"
)

// The shard/merge execution layer: split any scenario list, sweep, or
// adaptive round across processes by trial-index range, serialize each
// process's accumulator state as a versioned ndshard/2 snapshot, and merge
// the snapshots into results byte-identical (after StripRuntime) to an
// unsharded run. The engine's determinism contract — every trial runs on
// an RNG stream derived from (spec hash, trial index), and the one
// all-integer accumulator is closed under merging disjoint trial ranges —
// makes the merge exact, not approximate.
type (
	// ShardSpec selects trial-range shard k of n (1-based): the contiguous
	// range [⌊(k−1)·T/n⌋, ⌊k·T/n⌋) of every scenario's trials.
	ShardSpec = engine.ShardSpec
	// Snapshot is one ndshard/2 document: a shard's serialized accumulator
	// state for every point it ran, plus — for adaptive searches — the
	// search spec and the pooled evaluations of completed rounds.
	Snapshot = engine.Snapshot
	// PointSnapshot is one scenario's accumulator state over one trial
	// range inside a Snapshot.
	PointSnapshot = engine.PointSnapshot
)

// SnapshotCodec is the ndshard serialization version this build reads and
// writes; decoding rejects every other value.
const SnapshotCodec = engine.SnapshotCodec

// ParseShard parses the CLI shard form "k/n".
func ParseShard(s string) (ShardSpec, error) { return engine.ParseShard(s) }

// RunScenariosShard runs trial-range shard k/n of a scenario list and
// returns the snapshot to feed MergeSnapshots. The label names the run and
// becomes the merged SuiteResult's suite name.
func RunScenariosShard(label string, scenarios []Scenario, shard ShardSpec, opt EngineOptions) (Snapshot, error) {
	return engine.RunScenariosShard(label, scenarios, shard, opt)
}

// RunSweepShard expands a sweep and runs trial-range shard k/n of every
// grid point, returning the snapshot to feed MergeSnapshots.
func RunSweepShard(sp SweepSpec, shard ShardSpec, opt EngineOptions) (Snapshot, error) {
	return engine.RunSweepShard(sp, shard, opt)
}

// MergeSnapshots merges a complete shard set (shards 1..n of one suite or
// sweep run) into the final SuiteResult, byte-identical — after
// StripRuntime — to the unsharded run's document.
func MergeSnapshots(snaps []Snapshot) (SuiteResult, error) {
	return engine.MergeSnapshots(snaps)
}

// RunAdaptiveShard runs trial-range shard k/n of one adaptive-search
// round: it replays the deterministic search against the continuation
// snapshot's pooled evaluations (prior; nil for the first round) and runs
// this shard's slice of the first unanswered round. Exactly one return is
// set — a snapshot for MergeAdaptiveSnapshots, or the final result when
// the pool already completes the search.
func RunAdaptiveShard(ap AdaptiveSpec, shard ShardSpec, prior *Snapshot, opt EngineOptions) (*Snapshot, *AdaptiveResult, error) {
	return engine.RunAdaptiveShard(ap, shard, prior, opt)
}

// MergeAdaptiveSnapshots merges one adaptive shard round and replays the
// search: it returns the final AdaptiveResult when the search converged,
// or the continuation snapshot to pass (as prior) into the next round's
// RunAdaptiveShard calls.
func MergeAdaptiveSnapshots(snaps []Snapshot) (*AdaptiveResult, *Snapshot, error) {
	return engine.MergeAdaptiveSnapshots(snaps)
}

// RunJournaled runs the scenarios like RunScenarios while journaling every
// completed point's accumulator snapshot into dir; re-running the same job
// against the same directory restores journaled points instead of
// re-executing them, so interrupted sweeps resume where they died and
// produce identical final aggregates.
func RunJournaled(label string, scenarios []Scenario, opt EngineOptions, dir string) ([]ScenarioResult, error) {
	return engine.RunJournaled(label, scenarios, opt, dir)
}

// ReadSnapshotFile loads and validates one ndshard/2 snapshot file.
func ReadSnapshotFile(path string) (Snapshot, error) { return engine.ReadSnapshotFile(path) }

// WriteSnapshotFile atomically writes a snapshot to path (temp file +
// rename, so a crash never leaves a torn snapshot).
func WriteSnapshotFile(path string, s Snapshot) error { return engine.WriteSnapshotFile(path, s) }
