package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/timebase"
)

func TestParseShard(t *testing.T) {
	good := map[string]ShardSpec{
		"1/1":   {K: 1, N: 1},
		"2/3":   {K: 2, N: 3},
		"7/7":   {K: 7, N: 7},
		"10/64": {K: 10, N: 64},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShard(%q) = %v, want %v", in, got, want)
		}
	}
	bad := []string{
		"", "1", "1/", "/3", "a/b", "1/3/5", "1.5/3", "0/0", "0/3", "2/1", "-1/3", "1/-3", "-2/-3", "1 / 3",
	}
	for _, in := range bad {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q): want error", in)
		}
	}
}

func TestShardRangePartition(t *testing.T) {
	for _, trials := range []int{0, 1, 2, 3, 5, 7, 16, 100, 101} {
		for _, n := range []int{1, 2, 3, 7, 13} {
			prev := 0
			for k := 1; k <= n; k++ {
				lo, hi := (ShardSpec{K: k, N: n}).Range(trials)
				if lo != prev {
					t.Fatalf("trials=%d n=%d: shard %d starts at %d, want %d (ranges must be contiguous)", trials, n, k, lo, prev)
				}
				if hi < lo {
					t.Fatalf("trials=%d n=%d: shard %d has hi %d < lo %d", trials, n, k, hi, lo)
				}
				prev = hi
			}
			if prev != trials {
				t.Fatalf("trials=%d n=%d: shards cover [0, %d), want [0, %d)", trials, n, prev, trials)
			}
		}
	}
}

// tinySnapshot runs one small scenario as shard k/n and returns the
// snapshot, for merge-validation tests that need realistic inputs.
func tinySnapshot(t *testing.T, sc Scenario, k, n int) Snapshot {
	t.Helper()
	snap, err := RunScenariosShard("tiny", []Scenario{sc}, ShardSpec{K: k, N: n}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunScenariosShard %d/%d: %v", k, n, err)
	}
	return snap
}

func tinyScenario(trials int, seed int64) Scenario {
	return Scenario{
		Name:       "tiny",
		Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1, Eta: 0.02},
		Population: 2,
		Trials:     trials,
		Horizon:    HorizonSpec{WorstMultiple: 3},
		Seed:       seed,
	}
}

func TestMergeSnapshotsValidation(t *testing.T) {
	sc := tinyScenario(9, 7)
	s1 := tinySnapshot(t, sc, 1, 3)
	s2 := tinySnapshot(t, sc, 2, 3)
	s3 := tinySnapshot(t, sc, 3, 3)

	cases := []struct {
		name  string
		snaps []Snapshot
		want  string
	}{
		{"empty", nil, "no snapshots"},
		{"missing shard", []Snapshot{s1, s3}, "all 3 shards"},
		{"duplicate shard", []Snapshot{s1, s2, s2}, "not exactly"},
		{"foreign n", []Snapshot{s1, s2, tinySnapshot(t, sc, 3, 7)}, "not exactly"},
	}
	for _, c := range cases {
		if _, err := MergeSnapshots(c.snaps); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}

	// Mixed runs: same shard shape, different spec → spec-hash mismatch.
	other := tinyScenario(9, 8) // different seed → different hash
	o2 := tinySnapshot(t, other, 2, 3)
	o2.Label = s1.Label
	if _, err := MergeSnapshots([]Snapshot{s1, o2, s3}); err == nil || !strings.Contains(err.Error(), "different runs") {
		t.Errorf("spec-hash mismatch: got %v, want 'different runs' error", err)
	}

	// Version skew is rejected before anything is merged.
	skew := s2
	skew.Codec = "ndshard/9"
	if _, err := MergeSnapshots([]Snapshot{s1, skew, s3}); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Errorf("codec skew: got %v, want codec error", err)
	}

	// The happy path still merges.
	if _, err := MergeSnapshots([]Snapshot{s3, s1, s2}); err != nil {
		t.Errorf("unordered full set: %v", err)
	}
}

// The layout guard must hold at the snapshot layer: merging shard states
// whose layouts disagree is an error, not corruption, and a merged payload
// whose layout is not the one its scenario derives is refused at
// finalization.
func TestMergeStreamLayoutMismatch(t *testing.T) {
	sc := tinyScenario(8, 7)
	s1 := tinySnapshot(t, sc, 1, 2)
	s2 := tinySnapshot(t, sc, 2, 2)
	s2.Points[0].Accum.Horizon++ // corrupt the layout, keep identity
	if _, err := MergeSnapshots([]Snapshot{s1, s2}); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("layout mismatch between shards: got %v, want incompatible-accumulator error", err)
	}

	for name, corrupt := range map[string]func(a *Accum){
		"horizon": func(a *Accum) { a.Horizon++ },
		"key width": func(a *Accum) {
			b := newAccum(a.Horizon, 2, a.Worst, len(a.ChanDisc))
			for k, n := range a.Counts {
				for ; n > 0; n-- {
					b.add(k)
				}
			}
			b.Misses = a.Misses
			*a = *b
		},
		"contact scale": func(a *Accum) {
			a.Worst, a.ContactN, a.ContactD = 7, make([]int64, len(contactBinEdges)), make([]int64, len(contactBinEdges))
		},
		"channel count": func(a *Accum) {
			a.ChanDisc, a.ChanTx, a.ChanColl = make([]int64, 3), make([]int64, 3), make([]int64, 3)
		},
	} {
		whole := tinySnapshot(t, sc, 1, 1)
		corrupt(whole.Points[0].Accum)
		if _, err := MergeSnapshots([]Snapshot{whole}); err == nil || !strings.Contains(err.Error(), "does not match its scenario") {
			t.Errorf("%s differs from the scenario's: got %v, want scenario-mismatch error", name, err)
		}
	}
}

// An ndshard/1 document (the previous two-form payload) is refused with
// the codec's unsupported-codec error, not as an unknown field.
func TestSnapshotRejectsPreviousCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, tinySnapshot(t, tinyScenario(6, 7), 1, 1)); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(buf.Bytes(), []byte(`"ndshard/2"`), []byte(`"ndshard/1"`), 1)
	v1 = bytes.Replace(v1, []byte(`"accum"`), []byte(`"exact"`), 1)
	_, err := DecodeSnapshot(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), `unsupported snapshot codec "ndshard/1"`) {
		t.Fatalf("ndshard/1 document: got %v, want the unsupported-codec error", err)
	}
}

func TestSnapshotDecodeRejections(t *testing.T) {
	sc := tinyScenario(6, 7)
	snap := tinySnapshot(t, sc, 1, 2)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	valid := buf.Bytes()

	if _, err := DecodeSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("decode of valid snapshot: %v", err)
	}

	cases := map[string][]byte{
		"truncated":      valid[:len(valid)/2],
		"trailing data":  append(append([]byte{}, valid...), []byte("{}")...),
		"version skew":   bytes.Replace(append([]byte{}, valid...), []byte("ndshard/2"), []byte("ndshard/9"), 1),
		"unknown field":  bytes.Replace(append([]byte{}, valid...), []byte(`"codec"`), []byte(`"kodec"`), 1),
		"empty document": []byte("{}"),
		"not json":       []byte("accumulator"),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode accepted corrupted input", name)
		}
	}
}

// An n of 1 must behave as the identity: one shard, one merge, same bytes
// as the direct run.
func TestSingleShardIdentity(t *testing.T) {
	sc := tinyScenario(12, 7)
	aggs, err := RunSuite([]Scenario{sc}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	direct := SuiteResult{Suite: "tiny", Scenarios: aggs}
	direct.StripRuntime()

	merged, err := MergeSnapshots([]Snapshot{tinySnapshot(t, sc, 1, 1)})
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	merged.StripRuntime()

	var a, b bytes.Buffer
	if err := WriteJSON(&a, direct); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("1/1 shard + merge differs from the direct run")
	}
}
