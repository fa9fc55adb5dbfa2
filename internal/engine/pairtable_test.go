package engine

import (
	"reflect"
	"testing"

	"repro/internal/coverage"
)

// This file pins the engine's latency-table gate: a pair point whose trial
// range reaches its table's entry count reads the table, and must fold
// exactly the accumulator the same trials fold on the kernel.

// pointAccum runs sc as one captured point under opt and returns its
// merged accumulator.
func pointAccum(t *testing.T, sc Scenario, opt Options) *Accum {
	t.Helper()
	opt.capture, opt.Workers = true, 2
	points, err := runPoints([]Scenario{sc}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return points[0].snap.Accum
}

// TestPairTablePointsMatchKernel runs the single-channel and the
// multi-channel pair presets at exactly their tables' entry counts, the
// smallest trial range the gate tabulates, once on the table and once
// forced onto the kernel, and requires identical accumulators. It then
// runs the same points in three shards, each below the entry count and so
// on the kernel, and requires their merge to reproduce the tabulated run.
func TestPairTablePointsMatchKernel(t *testing.T) {
	for _, name := range []string{"quickstart", "ble3-fast"} {
		t.Run(name, func(t *testing.T) {
			sc, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := build(sc.Protocol, sc.Population, new(coverage.Workspace))
			if err != nil {
				t.Fatal(err)
			}
			sc.Trials = b.TableEntries
			for _, kernelOnly := range []bool{false, true} {
				p, err := prepare(sc, Options{kernelOnly: kernelOnly}, new(coverage.Workspace))
				if err != nil {
					t.Fatal(err)
				}
				p.begin(1)
				if p.tabulates() == kernelOnly {
					t.Fatalf("%d trials, kernelOnly %v: tabulated %v", sc.Trials, kernelOnly, p.tabulates())
				}
			}
			table := pointAccum(t, sc, Options{})
			kernel := pointAccum(t, sc, Options{kernelOnly: true})
			if !reflect.DeepEqual(table, kernel) {
				t.Fatalf("the tabulated point folded %+v, the kernel %+v", table, kernel)
			}

			full, err := RunScenario(sc, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var snaps []Snapshot
			for k := 1; k <= 3; k++ {
				snap, err := RunScenariosShard("gate", []Scenario{sc}, ShardSpec{K: k, N: 3}, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, snap)
			}
			merged, err := MergeSnapshots(snaps)
			if err != nil {
				t.Fatal(err)
			}
			merged.StripRuntime()
			full.Runtime = nil
			if !reflect.DeepEqual(merged.Scenarios[0], full) {
				t.Fatalf("merged kernel shards %+v, tabulated point %+v", merged.Scenarios[0], full)
			}
		})
	}
}

// TestMultiChannelTableEntries pins the table entry counts of the
// registry's multi-channel pair points, which decide whether the gate
// tabulates them: ble3-fast and the three points of sweep-channels.
func TestMultiChannelTableEntries(t *testing.T) {
	sc, err := Preset("ble3-fast")
	if err != nil {
		t.Fatal(err)
	}
	points := []Scenario{sc}
	sp, err := SweepPreset("sweep-channels")
	if err != nil {
		t.Fatal(err)
	}
	swept, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, swept...)
	var got []int
	for _, sc := range points {
		b, err := build(sc.Protocol, sc.Population, new(coverage.Workspace))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.TableEntries)
	}
	if want := []int{81, 3, 24, 81}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ble3-fast and sweep-channels count %v table entries, want %v", got, want)
	}
}
