package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/timebase"
)

// piSpec is a cheap-to-build spec family with one distinct cache key per
// index (Ta varies, everything else fixed; single-beacon schedules keep
// the coverage analysis trivial).
func piSpec(i int) ProtocolSpec {
	return ProtocolSpec{Kind: "pi", Omega: 36, Alpha: 1,
		Ta: timebase.Ticks(1000 + i), Ts: 2000, Ds: 500}
}

// TestBuildCacheEviction: the cache must stay bounded no matter how many
// distinct protocol builds pass through it — the failure mode was a huge
// protocol-axis sweep retaining every build for the process lifetime.
func TestBuildCacheEviction(t *testing.T) {
	c := newBuildLRU(8)
	for i := 0; i < 100; i++ {
		c.get(uint64(i))
	}
	if got := c.len(); got != 8 {
		t.Fatalf("cache holds %d entries, want the capacity 8", got)
	}
	// The most recently inserted keys survive; the earliest were evicted,
	// so re-fetching key 0 creates a fresh entry (still bounded).
	e99 := c.get(99)
	if c.get(99) != e99 {
		t.Fatal("resident key must return the same entry")
	}
	e0 := c.get(0)
	if e0 == nil || c.len() != 8 {
		t.Fatalf("re-miss after eviction broke the bound: len=%d", c.len())
	}

	// End to end: run far more distinct builds than the capacity through
	// the real cache and check residency stays bounded.
	for i := 0; i < 2*buildCacheCap; i++ {
		if _, err := build(piSpec(i), 2, new(coverage.Workspace)); err != nil {
			t.Fatal(err)
		}
	}
	if got := buildCache.len(); got > buildCacheCap {
		t.Fatalf("build cache grew to %d entries past its %d cap", got, buildCacheCap)
	}
}

// TestBuildCacheLRUOrder: a touched entry must outlive untouched older
// ones.
func TestBuildCacheLRUOrder(t *testing.T) {
	c := newBuildLRU(2)
	a := c.get(1)
	c.get(2)
	if c.get(1) != a {
		t.Fatal("key 1 should still be resident")
	}
	c.get(3) // evicts 2 (least recently used), not 1
	if c.get(1) != a {
		t.Fatal("touching key 1 should have protected it from eviction")
	}
}

// TestBuildCacheConcurrentMiss: many goroutines missing on the same key
// concurrently must run the underlying build exactly once and all observe
// the same result — the sync.Once contract the old sync.Map gave, now
// under the LRU.
func TestBuildCacheConcurrentMiss(t *testing.T) {
	spec := ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1, Eta: 0.0123456}
	before := buildUncachedCalls.Load()

	const goroutines = 16
	results := make([]*built, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait() // maximize contention on the first miss
			results[g], errs[g] = build(spec, 2, new(coverage.Workspace))
		}(g)
	}
	start.Done()
	done.Wait()

	if calls := buildUncachedCalls.Load() - before; calls != 1 {
		t.Fatalf("%d concurrent misses ran buildUncached %d times, want exactly 1", goroutines, calls)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("goroutine %d observed a different build", g)
		}
	}
}

// coldRun numbers TestConcurrentPrepareMatchesFreshBuilds's runs, so
// every run (with -count too) misses the build cache on every design.
var coldRun atomic.Int64

// TestConcurrentPrepareMatchesFreshBuilds: four preparing goroutines share
// out cold designs of mixed sizes (one-way Disco and U-Connect sweeps of
// thousands of items, two-way asymmetric pairs, single-beacon PI), each
// reusing its own workspace from miss to miss, and every build's analysis
// equals a build on a fresh workspace.
func TestConcurrentPrepareMatchesFreshBuilds(t *testing.T) {
	run := int(coldRun.Add(1))
	var scenarios []Scenario
	for i := 0; i < 6; i++ {
		u := 100*run + i
		for _, p := range []ProtocolSpec{
			{Kind: "disco", Omega: 36, Alpha: 1, P1: 37, P2: 43, SlotLen: timebase.Ticks(4000 + u)},
			{Kind: "asymmetric", Omega: 36, Alpha: 1, EtaE: 0.01 + 0.0001*float64(u), EtaF: 0.08},
			{Kind: "uconnect", Omega: 36, Alpha: 1, P: 31, SlotLen: timebase.Ticks(4000 + u)},
			piSpec(100000 + u),
		} {
			scenarios = append(scenarios, Scenario{Name: fmt.Sprintf("cold-%d-%s", u, p.Kind), Protocol: p,
				Population: 2, Trials: 1, Seed: 1, Horizon: HorizonSpec{PeriodMultiple: 1}})
		}
	}
	var m obs.RunMetrics
	points, err := runPoints(scenarios, Options{Workers: 4, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildCache.Misses != int64(len(scenarios)) {
		t.Fatalf("%d build-cache misses for %d designs", m.BuildCache.Misses, len(scenarios))
	}
	for i, p := range points {
		want, err := buildUncached(scenarios[i].Protocol, 2, new(coverage.Workspace))
		if err != nil {
			t.Fatal(err)
		}
		if p.b.Analysis != want.Analysis || p.b.WorstTwoWay != want.WorstTwoWay || p.b.TableEntries != want.TableEntries {
			t.Errorf("%s: concurrent prepare built %+v (two-way %d, %d entries), a fresh workspace %+v (%d, %d)",
				scenarios[i].Name, p.b.Analysis, p.b.WorstTwoWay, p.b.TableEntries, want.Analysis, want.WorstTwoWay, want.TableEntries)
		}
	}
}
