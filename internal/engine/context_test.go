package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestContextPreCanceled: a context that is already dead aborts the run
// before any trial is scheduled, with the typed ErrCanceled.
func TestContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aggs, err := RunSuite([]Scenario{groupScenario()}, Options{Workers: 2, Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run returned %v, want ErrCanceled", err)
	}
	if aggs != nil {
		t.Errorf("canceled run leaked aggregates: %v", aggs)
	}
	if !strings.Contains(err.Error(), "after 0 of") {
		t.Errorf("error does not report zero executed trials: %v", err)
	}
}

// TestContextCancelMidRun: cancelling while trials execute aborts the run
// with ErrCanceled and no aggregates — results are all-or-nothing, so a
// truncated run can never masquerade as a complete one.
func TestContextCancelMidRun(t *testing.T) {
	sc := groupScenario()
	sc.Trials = 6000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var m obs.RunMetrics
	opt := Options{
		Workers:          2,
		Context:          ctx,
		Metrics:          &m,
		ProgressInterval: time.Millisecond,
		Progress: func(p obs.Progress) {
			if p.TrialsDone > 0 {
				cancel()
			}
		},
	}
	aggs, err := RunSuite([]Scenario{sc, sc, sc}, opt)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	if aggs != nil {
		t.Errorf("canceled run leaked aggregates: %v", aggs)
	}
	// Metrics still report what was measured up to the abort.
	if m.Workers != 2 {
		t.Errorf("canceled run recorded no metrics: %+v", m)
	}
}

// TestContextNilNeverCancels: the zero Options run to completion unchanged —
// adding the field must not perturb existing callers.
func TestContextNilNeverCancels(t *testing.T) {
	if _, err := RunSuite([]Scenario{groupScenario()}, Options{Workers: 2}); err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
}

// TestPointResultDelivery: every full-range point delivers exactly one
// PointResult invocation carrying its input index and an aggregate
// identical to the one the run returns — including exact fast-path points,
// which never execute a trial.
func TestPointResultDelivery(t *testing.T) {
	a := groupScenario()
	b := groupScenario()
	b.Name, b.Seed, b.Trials = "group-test-b", 7, 16
	exact := Scenario{
		Name:       "exact-point",
		Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.05},
		Population: 2,
		Horizon:    HorizonSpec{WorstMultiple: 3},
		Exact:      true,
	}
	scenarios := []Scenario{a, exact, b}

	var mu sync.Mutex
	got := make(map[int]Aggregate)
	aggs, err := RunSuite(scenarios, Options{
		Workers: 3,
		PointResult: func(idx int, agg Aggregate) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[idx]; dup {
				t.Errorf("point %d delivered twice", idx)
			}
			got[idx] = agg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scenarios) {
		t.Fatalf("delivered %d points, want %d", len(got), len(scenarios))
	}
	for i := range scenarios {
		agg, ok := got[i]
		if !ok {
			t.Errorf("point %d never delivered", i)
			continue
		}
		if !bytes.Equal(marshalAgg(t, agg), marshalAgg(t, aggs[i])) {
			t.Errorf("point %d: delivered aggregate differs from returned one", i)
		}
	}
}

// TestPointResultErrorSuppressed: a failing point delivers nothing — the
// hook releases results, never failures.
func TestPointResultErrorSuppressed(t *testing.T) {
	bad := groupScenario()
	bad.Name = "bad-point"
	bad.Protocol.Eta = 0 // invalid: build fails during prepare
	var calls int
	_, err := RunSuite([]Scenario{bad}, Options{
		Workers:     2,
		PointResult: func(int, Aggregate) { calls++ },
	})
	if err == nil {
		t.Fatal("invalid scenario did not fail")
	}
	if calls != 0 {
		t.Errorf("failed run delivered %d point results, want 0", calls)
	}
}

// TestJournalPointResult: a journaled resume releases EVERY point through
// the hook — restored ones from their snapshots, pending ones from the
// executor — remapped to the original input indices, so a daemon's event
// stream is complete across a crash.
func TestJournalPointResult(t *testing.T) {
	sp := journalSweep()
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunJournaled(sp.Name, scenarios, Options{Workers: 2}, dir); err != nil {
		t.Fatal(err)
	}
	// Lose two of the four points, as a mid-sweep kill would.
	for _, i := range []int{0, 2} {
		if err := os.Remove(journalPointPath(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := make(map[int]Aggregate)
	var m obs.RunMetrics
	aggs, err := RunJournaled(sp.Name, scenarios, Options{
		Workers: 2,
		Metrics: &m,
		PointResult: func(idx int, agg Aggregate) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[idx]; dup {
				t.Errorf("point %d delivered twice", idx)
			}
			got[idx] = agg
		},
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.ResumedPoints != 2 || m.SnapshotPoints != 2 {
		t.Fatalf("resume split wrong: resumed=%d snapshots=%d", m.ResumedPoints, m.SnapshotPoints)
	}
	if len(got) != len(scenarios) {
		t.Fatalf("delivered %d points, want %d", len(got), len(scenarios))
	}
	for i := range scenarios {
		if !bytes.Equal(marshalAgg(t, got[i]), marshalAgg(t, aggs[i])) {
			t.Errorf("point %d: delivered aggregate differs from returned one", i)
		}
	}
}
