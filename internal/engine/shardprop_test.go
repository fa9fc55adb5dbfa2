package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/timebase"
)

// Satellite 1: the property harness for the shard/merge determinism
// contract. For randomized scenarios across every protocol kind, shard
// counts n ∈ {1, 2, 3, 7}, unquantized and quantized points, and arbitrary
// worker counts, merging shards 1..n must reproduce — byte for byte, after
// StripRuntime — the document an unsharded run writes. Every shard
// snapshot is round-tripped through the ndshard/2 codec on the way, so the
// property covers serialization, not just in-memory merging.

// propTemplates covers every protocol kind and execution mode the engine
// dispatches on: the five continuous-time branches of runTrial (pair,
// group, churn, multi-channel pair, multi-channel group/churn) and the
// slot-grid branch, plus the slotted continuous protocols and every
// schedule family (optimal, asymmetric, constrained, ble, slotted).
// Trials and seed are stamped per property case.
func propTemplates() []Scenario {
	const omega = 36 * timebase.Microsecond
	const bleOmega = 128 * timebase.Microsecond
	slot := 5 * timebase.Millisecond
	return []Scenario{
		{
			Name:       "prop-optimal",
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: omega, Alpha: 1, Eta: 0.02},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 3},
		},
		{
			Name:       "prop-asymmetric",
			Protocol:   ProtocolSpec{Kind: "asymmetric", Omega: omega, Alpha: 1, EtaE: 0.005, EtaF: 0.10},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 3},
		},
		{
			Name:       "prop-constrained",
			Protocol:   ProtocolSpec{Kind: "constrained", Omega: omega, Alpha: 1, Eta: 0.05, PF: 0.001},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 3},
		},
		{
			Name:       "prop-ble",
			Protocol:   ProtocolSpec{Kind: "ble", Omega: bleOmega, Alpha: 1, Preset: "fast"},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 3},
			Channel:    ChannelSpec{Jitter: 10 * timebase.Millisecond},
		},
		{
			Name:       "prop-multichannel",
			Protocol:   ProtocolSpec{Kind: "multichannel", Omega: bleOmega, Alpha: 1, Preset: "fast"},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 3},
		},
		{
			Name:       "prop-mc-group",
			Protocol:   ProtocolSpec{Kind: "multichannel-group", Omega: bleOmega, Alpha: 1, Preset: "fast"},
			Population: 4,
			Horizon:    HorizonSpec{WorstMultiple: 6},
			Channel:    ChannelSpec{Collisions: true, HalfDuplex: true},
		},
		{
			Name:       "prop-mc-churn",
			Protocol:   ProtocolSpec{Kind: "multichannel-churn", Omega: bleOmega, Alpha: 1, Preset: "fast"},
			Population: 4,
			Horizon:    HorizonSpec{WorstMultiple: 10},
			Churn:      &ChurnSpec{StayWorstMultiple: 4},
			Channel:    ChannelSpec{Collisions: true, HalfDuplex: true},
		},
		{
			Name:       "prop-group",
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: omega, Alpha: 1, Eta: 0.05},
			Population: 6,
			Horizon:    HorizonSpec{WorstMultiple: 8},
			Channel:    ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360 * timebase.Microsecond},
		},
		{
			Name:       "prop-churn",
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: omega, Alpha: 1, Eta: 0.05},
			Population: 5,
			Horizon:    HorizonSpec{WorstMultiple: 8},
			Churn:      &ChurnSpec{StayWorstMultiple: 2},
		},
		{
			Name:       "prop-slotgrid",
			Protocol:   ProtocolSpec{Kind: "slot-disco", Omega: omega, Alpha: 1, P1: 37, P2: 43, SlotLen: slot},
			Population: 2,
			Horizon:    HorizonSpec{WorstMultiple: 2},
		},
		{
			Name:       "prop-slotted",
			Protocol:   ProtocolSpec{Kind: "searchlight", Omega: omega, Alpha: 1, T: 16, Striped: true, SlotLen: slot},
			Population: 2,
			Horizon:    HorizonSpec{PeriodMultiple: 3},
		},
	}
}

// codecRoundTrip pushes a snapshot through the ndshard/2 codec and asserts
// the round-trip is the identity on bytes: encode(decode(encode(x))) ==
// encode(x).
func codecRoundTrip(t *testing.T, snap Snapshot) Snapshot {
	t.Helper()
	var first bytes.Buffer
	if err := EncodeSnapshot(&first, snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	var second bytes.Buffer
	if err := EncodeSnapshot(&second, dec); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("codec round-trip is not the identity:\nfirst:  %.200s\nsecond: %.200s", first.Bytes(), second.Bytes())
	}
	return dec
}

// diffJSON reports the first divergence between two rendered documents.
func diffJSON(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	t.Errorf("%s: merged shards differ from the unsharded run at byte %d:\nunsharded: …%s\nmerged:    …%s",
		label, i, clip(want, lo, i+120), clip(got, lo, i+120))
}

func clip(b []byte, lo, hi int) []byte {
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}

// assertShardMergeIdentical is the core property: for each n, shard the
// scenario list n ways (each shard with its own worker count), round-trip
// every snapshot through the codec, merge in shuffled order, and require
// the stripped result's bytes to equal the unsharded run's.
func assertShardMergeIdentical(t *testing.T, rng *rand.Rand, label string, scenarios []Scenario, ns ...int) {
	t.Helper()
	aggs, err := RunSuite(scenarios, Options{Workers: 1 + rng.Intn(4)})
	if err != nil {
		t.Fatalf("%s: unsharded run: %v", label, err)
	}
	want := SuiteResult{Suite: label, Scenarios: aggs}
	want.StripRuntime()
	var wantBuf bytes.Buffer
	if err := WriteJSON(&wantBuf, want); err != nil {
		t.Fatal(err)
	}

	for _, n := range ns {
		snaps := make([]Snapshot, n)
		for k := 1; k <= n; k++ {
			snap, err := RunScenariosShard(label, scenarios, ShardSpec{K: k, N: n}, Options{Workers: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatalf("%s: shard %d/%d: %v", label, k, n, err)
			}
			snaps[k-1] = codecRoundTrip(t, snap)
		}
		rng.Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
		merged, err := MergeSnapshots(snaps)
		if err != nil {
			t.Fatalf("%s: merge of %d shards: %v", label, n, err)
		}
		merged.StripRuntime()
		var gotBuf bytes.Buffer
		if err := WriteJSON(&gotBuf, merged); err != nil {
			t.Fatal(err)
		}
		diffJSON(t, fmt.Sprintf("%s/n%d", label, n), wantBuf.Bytes(), gotBuf.Bytes())
	}
}

func TestShardMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, tmpl := range propTemplates() {
		tmpl := tmpl
		t.Run(tmpl.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 7} {
				sc := tmpl
				sc.Trials = 4 + rng.Intn(12)
				if n == 7 && rng.Intn(2) == 0 {
					sc.Trials = 5 // fewer trials than shards: empty ranges must merge too
				}
				sc.Seed = 1 + rng.Int63n(1<<30)
				assertShardMergeIdentical(t, rng, tmpl.Name, []Scenario{sc}, n)
			}
		})
	}
}

// Both kinds of point must hold the property: the randomized cases above
// are all unquantized, so this pins a quantized point at its real size —
// more than streamThreshold expected samples, which no option can fake —
// next to an unquantized one in the same run.
func TestShardMergePropertyBothPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("a quantized point needs more than 2^18 trials; skipped with -short")
	}
	rng := rand.New(rand.NewSource(42))
	small := propTemplates()[0]
	small.Trials = 17
	small.Seed = 9
	big := propTemplates()[3] // BLE fast with jitter: the cheapest pair trial
	big.Name = "prop-quantized"
	big.Trials = streamThreshold + 1 + rng.Intn(1000)
	big.Seed = 11
	aggs, err := RunSuite([]Scenario{big}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !aggs[0].Streamed || aggs[0].QuantileResolution < 2 {
		t.Fatalf("%d trials must quantize with a bin width above 1: streamed=%v resolution=%d",
			big.Trials, aggs[0].Streamed, aggs[0].QuantileResolution)
	}
	assertShardMergeIdentical(t, rng, "both-paths", []Scenario{small, big}, 2, 3, 7)
}

// A sweep shards as its expanded scenario matrix: merge(shards of every
// grid point) must equal the unsharded sweep document.
func TestShardMergePropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := SweepSpec{
		Name: "prop-sweep",
		Base: Scenario{
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1},
			Population: 2,
			Trials:     10,
			Horizon:    HorizonSpec{WorstMultiple: 3},
			Seed:       5,
		},
		Axes: []SweepAxis{{Field: "protocol.eta", Values: []float64{0.01, 0.02, 0.05}}},
	}
	scenarios, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 7} {
		aggs, err := RunSweep(sp, Options{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		want := SuiteResult{Suite: sp.Name, Scenarios: aggs}
		want.StripRuntime()
		var wantBuf bytes.Buffer
		if err := WriteJSON(&wantBuf, want); err != nil {
			t.Fatal(err)
		}

		snaps := make([]Snapshot, n)
		for k := 1; k <= n; k++ {
			snap, err := RunSweepShard(sp, ShardSpec{K: k, N: n}, Options{Workers: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatalf("sweep shard %d/%d: %v", k, n, err)
			}
			snaps[k-1] = codecRoundTrip(t, snap)
		}
		merged, err := MergeSnapshots(snaps)
		if err != nil {
			t.Fatalf("sweep merge: %v", err)
		}
		merged.StripRuntime()
		var gotBuf bytes.Buffer
		if err := WriteJSON(&gotBuf, merged); err != nil {
			t.Fatal(err)
		}
		diffJSON(t, fmt.Sprintf("sweep/n%d (%d points)", n, len(scenarios)), wantBuf.Bytes(), gotBuf.Bytes())
	}
}

// An adaptive search shards round by round: each shard replays the search
// against the merged evaluation pool, runs its trial slice of the pending
// round, and the merge either finishes the search or emits a continuation
// for the next round. The final trace must be byte-identical to the
// unsharded search.
func TestShardMergePropertyAdaptive(t *testing.T) {
	for _, name := range []string{"adaptive-eta", "adaptive-density"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ap, err := AdaptivePreset(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Workers: 2, Trials: 8}
			want, err := RunAdaptive(ap, opt)
			if err != nil {
				t.Fatalf("unsharded adaptive: %v", err)
			}
			want.StripRuntime()
			var wantBuf bytes.Buffer
			if err := WriteAdaptiveJSON(&wantBuf, want); err != nil {
				t.Fatal(err)
			}

			const n = 3
			var prior *Snapshot
			var got *AdaptiveResult
			for round := 0; got == nil; round++ {
				if round > maxAdaptiveRounds+1 {
					t.Fatalf("shard loop did not converge after %d rounds", round)
				}
				snaps := make([]Snapshot, 0, n)
				for k := 1; k <= n; k++ {
					snap, res, err := RunAdaptiveShard(ap, ShardSpec{K: k, N: n}, prior, Options{Workers: 1 + k%3, Trials: 8})
					if err != nil {
						t.Fatalf("round %d shard %d/%d: %v", round, k, n, err)
					}
					if res != nil {
						got = res
						break
					}
					snaps = append(snaps, codecRoundTrip(t, *snap))
				}
				if got != nil {
					break
				}
				res, cont, err := MergeAdaptiveSnapshots(snaps)
				if err != nil {
					t.Fatalf("round %d merge: %v", round, err)
				}
				if res != nil {
					got = res
					break
				}
				prior = cont
			}
			got.StripRuntime()
			var gotBuf bytes.Buffer
			if err := WriteAdaptiveJSON(&gotBuf, *got); err != nil {
				t.Fatal(err)
			}
			diffJSON(t, name, wantBuf.Bytes(), gotBuf.Bytes())
		})
	}
}
