package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/strictjson"
)

// The job journal makes long runs crash-resumable: a journaled run writes
// one ndshard/2 snapshot per completed point into a journal directory
// (durable.WriteFile, so a kill or crash mid-write never leaves a torn
// entry), and a re-run of the same job finalizes the journaled
// points from their snapshots and executes only the missing ones. The
// resumed document is byte-identical (modulo "runtime" sections) to an
// uninterrupted run, because the snapshot finalizer is the same code path
// an unsharded run aggregates through.
//
// Layout: <dir>/journal.json is the manifest binding the directory to one
// job (codec version, label, and a hash over the point list), and
// <dir>/point-NNNN.json is point NNNN's completed snapshot —
// kind "journal", shard 1/1, exactly one full-range PointSnapshot.

// JournalCodec versions the journal manifest layout.
const JournalCodec = "ndjournal/2"

// journalManifest binds a journal directory to one job, so resuming with
// different scenarios or trial counts is rejected instead of silently
// mixing results.
type journalManifest struct {
	Codec   string `json:"codec"`
	Label   string `json:"label"`
	JobHash uint64 `json:"job_hash"`
	Points  int    `json:"points"`
}

// journalJobHash fingerprints the job: the label and every effective
// scenario's identity and trial count, in order. FNV-64a over a canonical
// line form.
func journalJobHash(label string, scenarios []Scenario) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d\n", label, len(scenarios))
	for _, sc := range scenarios {
		fmt.Fprintf(h, "%s|%#x|%d\n", sc.Name, sc.Hash(), sc.Trials)
	}
	return h.Sum64()
}

func journalPointPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("point-%04d.json", i))
}

// decodeJournalManifest strictly reads a journal.json manifest: unknown
// keys and trailing data are errors. It does not judge the codec; the
// caller compares the whole manifest against its job.
func decodeJournalManifest(data []byte) (journalManifest, error) {
	var m journalManifest
	if err := strictjson.Decode(bytes.NewReader(data), &m); err != nil {
		return journalManifest{}, err
	}
	return m, nil
}

// openJournal verifies the directory's manifest against this job, creating
// the directory and manifest on first use.
func openJournal(dir string, want journalManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "journal.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		var buf bytes.Buffer
		if err := writeIndentedJSON(&buf, want); err != nil {
			return err
		}
		return durable.WriteFile(path, buf.Bytes())
	}
	if err != nil {
		return err
	}
	got, err := decodeJournalManifest(data)
	if err != nil {
		return fmt.Errorf("engine: journal manifest %s: %w", path, err)
	}
	if got.Codec != want.Codec {
		return fmt.Errorf("engine: journal %s: unsupported codec %q (this build reads %q)", dir, got.Codec, want.Codec)
	}
	if got != want {
		return fmt.Errorf("engine: journal %s belongs to a different job (label %q, hash %#x, %d points; this run is label %q, hash %#x, %d points)",
			dir, got.Label, got.JobHash, got.Points, want.Label, want.JobHash, want.Points)
	}
	return nil
}

// RunJournaled runs the scenarios like RunSuite, but journals every
// completed point's accumulator snapshot into dir and, when the journal
// already holds entries for this job, restores them instead of
// re-executing — so an interrupted sweep resumes where it died and
// produces the identical final aggregates. Metrics (when requested)
// report the split as ResumedPoints vs freshly-run points.
func RunJournaled(label string, scenarios []Scenario, opt Options, dir string) ([]Aggregate, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("engine: journaled run needs at least one scenario")
	}
	// Fold the trial and exact overrides up front, exactly as prepare
	// does: the journal is keyed by effective scenarios, and snapshots
	// embed them.
	eff := make([]Scenario, len(scenarios))
	for i, sc := range scenarios {
		var err error
		if eff[i], err = EffectiveScenario(sc, opt); err != nil {
			return nil, err
		}
	}
	o := opt
	o.Trials = 0
	o.Exact = false

	if err := openJournal(dir, journalManifest{
		Codec:   JournalCodec,
		Label:   label,
		JobHash: journalJobHash(label, eff),
		Points:  len(eff),
	}); err != nil {
		return nil, err
	}

	aggs := make([]Aggregate, len(eff))
	resumed := 0
	var pending []Scenario
	var pendingIdx []int
	for i, sc := range eff {
		path := journalPointPath(dir, i)
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			pending = append(pending, sc)
			pendingIdx = append(pendingIdx, i)
			continue
		}
		snap, err := ReadSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		if snap.Kind != SnapshotJournal || len(snap.Points) != 1 {
			return nil, fmt.Errorf("engine: %s is not a journal entry", path)
		}
		ps := snap.Points[0]
		if ps.Name != sc.Name || ps.SpecHash != sc.Hash() || ps.Trials != sc.Trials {
			return nil, fmt.Errorf("engine: journal entry %s holds %q (hash %#x, %d trials), want %q (hash %#x, %d trials)",
				path, ps.Name, ps.SpecHash, ps.Trials, sc.Name, sc.Hash(), sc.Trials)
		}
		agg, err := finalizePoint(ps)
		if err != nil {
			return nil, fmt.Errorf("engine: journal entry %s: %w", path, err)
		}
		aggs[i] = agg
		resumed++
		// Restored points release their results through the same hook the
		// executor fires, so a resumed run's event stream is complete.
		if opt.PointResult != nil {
			opt.PointResult(i, agg)
		}
	}

	if len(pending) > 0 {
		o.capture = true
		if opt.PointResult != nil {
			// The executor indexes the pending slice; callers see the
			// original input order.
			o.PointResult = func(idx int, agg Aggregate) {
				opt.PointResult(pendingIdx[idx], agg)
			}
		}
		o.pointDone = func(idx int, snap *PointSnapshot) error {
			return WriteSnapshotFile(journalPointPath(dir, pendingIdx[idx]), Snapshot{
				Codec:  SnapshotCodec,
				Kind:   SnapshotJournal,
				Label:  label,
				Shard:  ShardSpec{K: 1, N: 1},
				Points: []PointSnapshot{*snap},
			})
		}
		points, err := runPoints(pending, o)
		if err != nil {
			return nil, err
		}
		for bi, p := range points {
			aggs[pendingIdx[bi]] = p.agg
		}
	}
	if opt.Metrics != nil {
		opt.Metrics.ResumedPoints = resumed
		opt.Metrics.SnapshotPoints = len(pending)
	}
	return aggs, nil
}
