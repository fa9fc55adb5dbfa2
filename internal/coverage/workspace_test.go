package coverage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// sameResult reports whether two analyses agree in every field, floats by
// their bits.
func sameResult(a, b Result) bool {
	return a == b && math.Float64bits(a.MeanLatency) == math.Float64bits(b.MeanLatency) &&
		math.Float64bits(a.CoveredFraction) == math.Float64bits(b.CoveredFraction)
}

// discoPair is one Disco(p1, p2) device's beacons against its windows: the
// one-way pair (not deterministic) or, full duplex, the deterministic one.
func discoPair(t *testing.T, p1, p2 int, fullDuplex bool) (schedule.BeaconSeq, schedule.WindowSeq) {
	t.Helper()
	d, err := protocols.NewDisco(p1, p2, 4*timebase.Millisecond, 36*timebase.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := d.Device()
	if fullDuplex {
		dev, err = d.DeviceFullDuplex()
	}
	if err != nil {
		t.Fatal(err)
	}
	return dev.B, dev.C
}

// TestWorkspaceReuseMatchesFresh: one Workspace analyzes a mixed sequence
// (a large pair, then small ones, then a large deterministic one and small
// ones again; deterministic pairs and not; capped horizons, truncated
// windows and the last packet counted), and every Result, floats by their
// bits, error and table entry count equals what a fresh Workspace gives.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	type job struct {
		b   schedule.BeaconSeq
		c   schedule.WindowSeq
		opt Options
	}
	var jobs []job
	rng := rand.New(rand.NewSource(25))
	small := func(n int) {
		for i := 0; i < n; i++ {
			b, c := randomPair(t, rng)
			opt := Options{CountLastPacket: rng.Intn(3) == 0, TruncatedWindows: rng.Intn(4) == 0}
			if rng.Intn(3) == 0 {
				opt.MaxBeacons = 1 + rng.Intn(2*b.MB())
			}
			jobs = append(jobs, job{b, c, opt})
		}
	}
	oneWayB, oneWayC := discoPair(t, 37, 43, false)
	fullB, fullC := discoPair(t, 23, 29, true)
	jobs = append(jobs, job{oneWayB, oneWayC, Options{}})
	small(150)
	jobs = append(jobs, job{fullB, fullC, Options{}}, job{fullB, fullC, Options{MaxBeacons: 40}})
	small(150)

	var ws Workspace
	var deterministic, capped, truncated int
	for i, j := range jobs {
		got, gotN, gotErr := AnalyzeWithTableSize(j.b, j.c, j.opt, &ws)
		var fresh Workspace
		want, wantN, wantErr := AnalyzeWithTableSize(j.b, j.c, j.opt, &fresh)
		if !sameResult(got, want) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("job %d (%+v): reused workspace gives %+v, %d entries, %v; fresh gives %+v, %d, %v",
				i, j.opt, got, gotN, gotErr, want, wantN, wantErr)
		}
		if got.Deterministic {
			deterministic++
		}
		if j.opt.MaxBeacons > 0 {
			capped++
		}
		if j.opt.TruncatedWindows {
			truncated++
		}
	}
	if deterministic < 50 || len(jobs)-deterministic < 50 || capped < 50 || truncated < 50 {
		t.Errorf("the sequence no longer mixes outcomes: %d deterministic of %d, %d capped, %d truncated",
			deterministic, len(jobs), capped, truncated)
	}
}

// TestWarmWorkspaceAllocatesPerStartOnly: once a Workspace has grown to a
// pair, analyzing it again allocates only the per-start slices: the worst
// and summed latencies, and for a deterministic pair the beacon gaps its
// means are weighed with.
func TestWarmWorkspaceAllocatesPerStartOnly(t *testing.T) {
	optB, optC := optimalPair(t, 10, 5, 2)
	oneWayB, oneWayC := discoPair(t, 37, 43, false)
	for _, tc := range []struct {
		name string
		b    schedule.BeaconSeq
		c    schedule.WindowSeq
		want float64
	}{
		{"optimal", optB, optC, 3},
		{"disco one-way", oneWayB, oneWayC, 2},
	} {
		var ws Workspace
		if _, _, err := AnalyzeWithTableSize(tc.b, tc.c, Options{}, &ws); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := AnalyzeWithTableSize(tc.b, tc.c, Options{}, &ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: %v allocations per analysis on a warm workspace, want %v", tc.name, allocs, tc.want)
		}
	}
}
