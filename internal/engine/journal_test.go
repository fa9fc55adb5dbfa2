package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/timebase"
)

func journalSweep() SweepSpec {
	return SweepSpec{
		Name: "journal-sweep",
		Base: Scenario{
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1},
			Population: 2,
			Trials:     12,
			Horizon:    HorizonSpec{WorstMultiple: 3},
			Seed:       23,
		},
		Axes: []SweepAxis{{Field: "protocol.eta", Values: []float64{0.01, 0.02, 0.05, 0.10}}},
	}
}

func renderStripped(t *testing.T, name string, aggs []Aggregate) []byte {
	t.Helper()
	res := SuiteResult{Suite: name, Scenarios: aggs}
	res.StripRuntime()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A journaled run must produce the same document as a plain run, and a
// resume after losing some entries must re-execute exactly the missing
// points and still produce the identical document.
func TestJournalResume(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunSuite(scenarios, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderStripped(t, sp.Name, direct)

	dir := t.TempDir()
	var m obs.RunMetrics
	aggs, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2, Metrics: &m}, dir)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	if got := renderStripped(t, sp.Name, aggs); !bytes.Equal(got, want) {
		t.Errorf("journaled run differs from plain run")
	}
	if m.ResumedPoints != 0 || m.SnapshotPoints != len(scenarios) {
		t.Errorf("fresh journaled run: resumed=%d snapshots=%d, want 0/%d", m.ResumedPoints, m.SnapshotPoints, len(scenarios))
	}

	// Simulate a mid-sweep kill: two completed points survive in the
	// journal, the rest never finished.
	for _, i := range []int{1, 3} {
		if err := os.Remove(journalPointPath(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	var m2 obs.RunMetrics
	resumed, err := RunJournaled(sp.Name, scenarios, Options{Workers: 3, Metrics: &m2}, dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := renderStripped(t, sp.Name, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed run differs from plain run")
	}
	if m2.ResumedPoints != 2 || m2.SnapshotPoints != 2 {
		t.Errorf("resume re-executed the wrong points: resumed=%d snapshots=%d, want 2/2", m2.ResumedPoints, m2.SnapshotPoints)
	}
	// The resume re-ran only the two missing points' trials.
	if wantTrials := int64(2 * sp.Base.Trials); m2.Trials != wantTrials {
		t.Errorf("resume ran %d trials, want %d", m2.Trials, wantTrials)
	}

	// A fully journaled job resumes without running anything.
	var m3 obs.RunMetrics
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2, Metrics: &m3}, dir); err != nil {
		t.Fatalf("no-op resume: %v", err)
	}
	if m3.ResumedPoints != len(scenarios) || m3.SnapshotPoints != 0 {
		t.Errorf("no-op resume: resumed=%d snapshots=%d, want %d/0", m3.ResumedPoints, m3.SnapshotPoints, len(scenarios))
	}
}

// A journal directory is bound to one job: resuming with different
// parameters (here the trial count) must be refused, not mixed in.
func TestJournalJobMismatch(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err != nil {
		t.Fatal(err)
	}
	_, err = RunJournaled(sp.Name, scenarios, Options{Workers: 2, Trials: 99}, dir)
	if err == nil || !strings.Contains(err.Error(), "different job") {
		t.Errorf("trial-count mismatch: got %v, want different-job error", err)
	}
}

// A journal written by the previous layout (ndjournal/1, whose job hash
// folded a stream mode and whose entries are ndshard/1) is refused with the
// codec's unsupported-codec error rather than resumed.
func TestJournalRejectsPreviousCodec(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	manifest := `{"codec": "ndjournal/1", "label": "journal-sweep", "job_hash": 1234, "points": 4}`
	if err := os.WriteFile(filepath.Join(dir, "journal.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir)
	if err == nil || !strings.Contains(err.Error(), `unsupported codec "ndjournal/1"`) {
		t.Fatalf("ndjournal/1 manifest: got %v, want the unsupported-codec error", err)
	}
}

// Content appended to a valid manifest must fail the resume, not be
// silently dropped by a decoder that stops after one document.
func TestJournalRejectsTrailingManifestData(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, `{"junk": 1}`...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir)
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("manifest with trailing data: got %v, want a trailing-data error", err)
	}
}

// A torn or tampered journal entry fails the resume loudly.
func TestJournalCorruptEntry(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err != nil {
		t.Fatal(err)
	}
	path := journalPointPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err == nil {
		t.Error("resume accepted a truncated journal entry")
	}

	// An entry swapped in from another point is an identity mismatch.
	other, err := os.ReadFile(journalPointPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err == nil ||
		!strings.Contains(err.Error(), "holds") {
		t.Errorf("swapped entry: got %v, want identity-mismatch error", err)
	}

	// journal.json must exist alongside the entries.
	if err := os.Remove(filepath.Join(dir, "journal.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2, Trials: 99}, dir); err == nil {
		t.Error("missing manifest with mismatched job parameters was accepted")
	}
}
