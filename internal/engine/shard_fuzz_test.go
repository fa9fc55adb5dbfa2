package engine

import (
	"bytes"
	"testing"

	"repro/internal/timebase"
)

// snapshotV1 is an ndshard/1 document as the previous two-payload codec
// wrote it (an exact-path point carrying its trial-ordered samples).
const snapshotV1 = `{"codec":"ndshard/1","kind":"suite","label":"v1-seed","shard":{"k":1,"n":1},"points":[{"name":"v1-seed","scenario":{"name":"v1-seed","protocol":{"kind":"optimal","omega":36,"alpha":1,"eta":0.05},"population":2,"trials":3,"horizon":{"worst_multiple":3},"channel":{},"seed":31},"spec_hash":12473152137249034730,"trials":3,"trial_lo":0,"trial_hi":3,"exact":{"samples":[18758,55789,48867]}}]}`

// FuzzSnapshotCodec is the ndshard/2 codec fuzz target. The invariant under
// arbitrary input: DecodeSnapshot either returns an error — never panics —
// or returns a snapshot whose re-encoding is a fixed point of the codec
// (decode ∘ encode is the identity on accepted documents).
func FuzzSnapshotCodec(f *testing.F) {
	seedScenario := func(trials int, churn bool) Scenario {
		sc := Scenario{
			Name:       "fuzz-seed",
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1, Eta: 0.05},
			Population: 2,
			Trials:     trials,
			Horizon:    HorizonSpec{WorstMultiple: 3},
			Seed:       31,
		}
		if churn {
			sc.Population = 4
			sc.Horizon = HorizonSpec{WorstMultiple: 8}
			sc.Churn = &ChurnSpec{StayWorstMultiple: 2}
		}
		return sc
	}
	encodeSeed := func(sc Scenario, k, n int) []byte {
		snap, err := RunScenariosShard("fuzz", []Scenario{sc}, ShardSpec{K: k, N: n}, Options{Workers: 2})
		if err != nil {
			f.Fatalf("seed run: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return buf.Bytes()
	}

	exact := encodeSeed(seedScenario(6, false), 1, 2)
	// A quantized point: the rule reads the full trial count, so a thin
	// shard of a large point carries binned keys while running only
	// ~260 trials.
	quantized := encodeSeed(seedScenario(streamThreshold+1, false), 1, 1000)
	if !bytes.Contains(quantized, []byte(`"width": `)) || bytes.Contains(quantized, []byte(`"width": 1,`)) {
		f.Fatalf("the quantized seed does not carry a bin width above 1")
	}
	churned := encodeSeed(seedScenario(5, true), 1, 1)
	empty := encodeSeed(seedScenario(2, false), 3, 7) // empty trial range
	crowd := seedScenario(3, false)
	crowd.Protocol = ProtocolSpec{Kind: "multichannel-group", Omega: 128 * timebase.Microsecond, Alpha: 1, Preset: "fast"}
	crowd.Population = 3
	multi := encodeSeed(crowd, 1, 1) // per-channel counters

	f.Add(exact)
	f.Add(quantized)
	f.Add(churned)
	f.Add(empty)
	f.Add(multi)
	f.Add([]byte(snapshotV1))
	f.Add(exact[:len(exact)/2])                                              // truncated
	f.Add(bytes.Replace(exact, []byte("ndshard/2"), []byte("ndshard/3"), 1)) // version skew
	f.Add(bytes.Replace(quantized, []byte(`"count"`), []byte(`"cuont"`), 1)) // unknown field
	f.Add(append(append([]byte(nil), churned...), '{', '}'))                 // trailing data
	f.Add([]byte("{}"))
	f.Add([]byte(`{"codec":"ndshard/2","kind":"suite","shard":{"k":1,"n":1},"points":[]}`))
	f.Add([]byte(`not json at all`))
	if i := bytes.Index(quantized, []byte(`"counts"`)); i >= 0 { // flipped byte inside the keys
		corrupt := append([]byte(nil), quantized...)
		corrupt[i+14] ^= 0x5a
		f.Add(corrupt)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is the only failure mode here
		}
		var first bytes.Buffer
		if err := EncodeSnapshot(&first, snap); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("codec rejected its own output: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeSnapshot(&second, again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("decode∘encode is not a fixed point:\nfirst:  %.300s\nsecond: %.300s", first.Bytes(), second.Bytes())
		}
	})
}
