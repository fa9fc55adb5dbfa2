package engine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// crowdScenario is a fast multi-node multi-channel point.
func crowdScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := Preset("ble3-crowd")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestMultiChannelGroupWorkerInvariance extends the engine's determinism
// contract to the multi-node multi-channel kinds: aggregates — including
// the per-channel collision accounting — are byte-identical between 1 and
// 8 workers.
func TestMultiChannelGroupWorkerInvariance(t *testing.T) {
	crowd := crowdScenario(t)
	crowd.Trials = 12
	churn, err := Preset("ble3-churn")
	if err != nil {
		t.Fatal(err)
	}
	churn.Trials = 12
	for _, sc := range []Scenario{crowd, churn} {
		serial, err := RunScenario(sc, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", sc.Name, err)
		}
		parallel, err := RunScenario(sc, Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", sc.Name, err)
		}
		if !bytes.Equal(marshalAgg(t, serial), marshalAgg(t, parallel)) {
			t.Errorf("%s: aggregates differ between 1 and 8 workers", sc.Name)
		}
	}
}

// TestMultiChannelGroupMatchesSerialTrials cross-checks the engine's
// sharded per-channel collision aggregates against a serial brute-force
// loop over the same per-trial primitive and RNG streams on a small
// population — the whole executor pipeline (sharding, accumulators,
// per-channel joins) must reproduce it exactly. The kernel itself is
// pinned against a quadratic reference in internal/sim.
func TestMultiChannelGroupMatchesSerialTrials(t *testing.T) {
	sc := crowdScenario(t)
	sc.Population = 4
	sc.Trials = 25
	agg, err := RunScenario(sc, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	b, err := build(sc.Protocol, sc.Population, new(coverage.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	horizon := agg.Horizon
	cfg := sim.Config{Horizon: horizon, Collisions: true, HalfDuplex: true}
	hash := sc.Hash()
	scr := sim.NewScratch()
	var transmissions, collided, discovered, missed int
	chanTx := make([]int, b.MC.Channels)
	chanColl := make([]int, b.MC.Channels)
	chanDisc := make([]int, b.MC.Channels)
	for trial := 0; trial < sc.Trials; trial++ {
		rng := rand.New(sim.NewFastSource(trialSeed(hash, trial)))
		res, err := sim.MultiChannelGroupTrialScratch(b.MC, sc.Population, cfg, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		transmissions += res.Transmissions
		collided += res.Collided
		discovered += len(res.Samples)
		missed += res.Misses
		for c, l := range res.PerChannel {
			chanTx[c] += l.Transmissions
			chanColl[c] += l.Collided
		}
		for c, d := range res.Discoveries {
			chanDisc[c] += d
		}
	}
	if agg.Transmissions != transmissions || agg.Collided != collided {
		t.Fatalf("pooled traffic diverges: engine %d/%d, serial %d/%d",
			agg.Transmissions, agg.Collided, transmissions, collided)
	}
	if agg.Pairs != discovered+missed || agg.Latency.Misses != missed {
		t.Fatalf("pair accounting diverges: engine %d pairs/%d misses, serial %d/%d",
			agg.Pairs, agg.Latency.Misses, discovered+missed, missed)
	}
	if len(agg.PerChannel) != b.MC.Channels {
		t.Fatalf("want %d per-channel rows, got %d", b.MC.Channels, len(agg.PerChannel))
	}
	for c, row := range agg.PerChannel {
		if row.Transmissions != chanTx[c] || row.Collided != chanColl[c] || row.Discoveries != chanDisc[c] {
			t.Fatalf("channel %d diverges: engine tx=%d coll=%d disc=%d, serial tx=%d coll=%d disc=%d",
				c, row.Transmissions, row.Collided, row.Discoveries, chanTx[c], chanColl[c], chanDisc[c])
		}
		if row.Transmissions > 0 {
			want := float64(row.Collided) / float64(row.Transmissions)
			if row.CollisionRate != want {
				t.Fatalf("channel %d collision rate %v, want %v", c, row.CollisionRate, want)
			}
		}
	}
}

// TestMultiChannelGroupPerChannelConsistency: per-channel rows sum to the
// pooled totals with exact and with quantized keys.
func TestMultiChannelGroupPerChannelConsistency(t *testing.T) {
	sc := crowdScenario(t)
	sc.Trials = 15
	exact, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Aggregate{exact, runQuantized(t, sc)} {
		mode := agg.Streamed
		var tx, coll, disc int
		for _, row := range agg.PerChannel {
			tx += row.Transmissions
			coll += row.Collided
			disc += row.Discoveries
		}
		if tx != agg.Transmissions || coll != agg.Collided {
			t.Fatalf("stream=%v: per-channel traffic %d/%d doesn't sum to pooled %d/%d",
				mode, tx, coll, agg.Transmissions, agg.Collided)
		}
		wantDisc := agg.Pairs - agg.Latency.Misses
		if disc != wantDisc {
			t.Fatalf("stream=%v: per-channel discoveries %d, want %d", mode, disc, wantDisc)
		}
		if agg.Transmissions == 0 || agg.Collided == 0 {
			t.Fatalf("stream=%v: crowd preset should produce collisions, got %d/%d",
				mode, agg.Collided, agg.Transmissions)
		}
	}
}

// TestMultiChannelChurnContactBins: the churn kind produces contact bins
// against the exact pairwise worst case, with consistent counts.
func TestMultiChannelChurnContactBins(t *testing.T) {
	sc, err := Preset("ble3-churn")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials = 20
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Deterministic || agg.ExactWorst <= 0 {
		t.Fatalf("ble3-fast pair analysis should be deterministic: %+v", agg.Deterministic)
	}
	if len(agg.ContactBins) == 0 {
		t.Fatal("churn scenario produced no contact bins")
	}
	contacts, discovered := 0, 0
	for _, b := range agg.ContactBins {
		contacts += b.Contacts
		discovered += b.Discovered
		if b.Discovered > b.Contacts {
			t.Fatalf("bin %+v discovered more than its contacts", b)
		}
	}
	if contacts != agg.Pairs {
		t.Fatalf("binned %d contacts, judged %d pairs", contacts, agg.Pairs)
	}
	if discovered != agg.Pairs-agg.Latency.Misses {
		t.Fatalf("binned %d discoveries, want %d", discovered, agg.Pairs-agg.Latency.Misses)
	}
}

// TestSweepDensityRuns: the density sweep expands over the population axis
// and every point carries per-channel accounting.
func TestSweepDensityRuns(t *testing.T) {
	sp, err := SweepPreset("sweep-density")
	if err != nil {
		t.Fatal(err)
	}
	sp.Base.Trials = 6
	aggs, err := RunSweep(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 4 {
		t.Fatalf("want 4 grid points, got %d", len(aggs))
	}
	prevTx := 0
	for i, a := range aggs {
		if len(a.PerChannel) != 3 {
			t.Fatalf("point %d: want 3 per-channel rows, got %d", i, len(a.PerChannel))
		}
		if a.Transmissions <= prevTx {
			t.Fatalf("point %d: traffic %d should grow with population (prev %d)", i, a.Transmissions, prevTx)
		}
		prevTx = a.Transmissions
	}
}

// TestMultiChannelGroupValidation: the multi-node kinds accept the
// workloads the pair kind rejects, and enforce their own churn pairing.
func TestMultiChannelGroupValidation(t *testing.T) {
	group := Scenario{
		Name:       "g",
		Protocol:   ProtocolSpec{Kind: "multichannel-group", Omega: 128, Alpha: 1, Preset: "fast"},
		Population: 5,
		Trials:     1,
		Channel:    ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 10},
		Seed:       1,
	}
	if err := group.Validate(); err != nil {
		t.Fatalf("group workload with channel model rejected: %v", err)
	}
	withChurn := group
	withChurn.Churn = &ChurnSpec{Stay: 100}
	if err := withChurn.Validate(); err == nil || !strings.Contains(err.Error(), "multichannel-churn") {
		t.Errorf("multichannel-group with churn should point at multichannel-churn, got %v", err)
	}
	churn := group
	churn.Protocol.Kind = "multichannel-churn"
	if err := churn.Validate(); err == nil || !strings.Contains(err.Error(), "churn spec") {
		t.Errorf("multichannel-churn without churn spec should be rejected, got %v", err)
	}
	churn.Churn = &ChurnSpec{Stay: 200 * timebase.Millisecond}
	if err := churn.Validate(); err != nil {
		t.Fatalf("valid multichannel-churn rejected: %v", err)
	}
}

// TestMultiChannelGroupJitterRuns: the kernel's jitter path is open to the
// multi-node kinds (the BLE advDelay decorrelation the single-channel
// workloads already had).
func TestMultiChannelGroupJitterRuns(t *testing.T) {
	sc := crowdScenario(t)
	sc.Trials = 8
	sc.Channel.Jitter = 300 // µs-scale advDelay per PDU
	agg, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Pairs == 0 || agg.Transmissions == 0 {
		t.Fatalf("jittered crowd produced no work: %+v", agg.Latency)
	}
}
