package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestDecodeJobRequestRejectsTrailingData: the shared decoder reads exactly
// one document, so a request followed by anything — a second object, stray
// text — is refused on submit and on restart alike.
func TestDecodeJobRequestRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"kind":"suite","name":"paper-fig7"}{"garbage":true} trailing`,
		`{"kind":"suite","name":"paper-fig7"} x`,
		`{"kind":"suite","name":"paper-fig7"}{}`,
	} {
		if _, err := decodeJobRequest(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%q: got %v, want trailing-data error", body, err)
		}
	}
	req, err := decodeJobRequest(strings.NewReader(" {\"kind\":\"suite\",\"name\":\"paper-fig7\"}\n\t"))
	if err != nil || req.Name != "paper-fig7" {
		t.Errorf("surrounding whitespace: got %+v, %v", req, err)
	}
}

// FuzzDecodeJobRequest: the job-request decoder reads outside input (the
// submit body and, after a restart, job.json). No input may panic it, and
// on accepted requests decode∘encode is a fixed point, where encode is the
// json.MarshalIndent form persistRequest writes, so a persisted request
// re-reads as itself.
func FuzzDecodeJobRequest(f *testing.F) {
	inline := func(req JobRequest) []byte {
		blob, err := marshalRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	scenario, err := engine.Preset("quickstart")
	if err != nil {
		f.Fatal(err)
	}
	adaptive, err := engine.AdaptivePreset("adaptive-eta")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"kind":"scenario","name":"quickstart"}`,
		`{"kind":"suite","name":"paper-fig7","trials":20,"priority":3}`,
		`{"kind":"sweep","name":"sweep-eta","exact":true}`,
		`{"kind":"adaptive","name":"adaptive-eta"}`,
		`{"kind":"suite","name":"paper-fig7","stream":"on"}`, // a field older builds accepted
		`{"kind":"suite","name":"paper-fig7"}{"garbage":true} trailing`,
		`{"kind":"suite","name":"paper-fig7","trialz":5}`,
		`{"kind":"suite","scenarios":[]}`,
		`{}`,
		`[`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(inline(JobRequest{Kind: "scenario", Scenarios: []engine.Scenario{scenario}}))
	f.Add(inline(tinySweepRequest()))
	f.Add(inline(JobRequest{Kind: "adaptive", Adaptive: &adaptive, Trials: 4}))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is the only failure mode here
		}
		first, err := marshalRequest(req)
		if err != nil {
			t.Fatalf("accepted request failed to encode: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decoder rejected its own encoding: %v\n%s", err, first)
		}
		second, err := marshalRequest(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode∘encode is not a fixed point:\nfirst:  %.300s\nsecond: %.300s", first, second)
		}
	})
}

// marshalRequest renders a request the way persistRequest does.
func marshalRequest(req JobRequest) ([]byte, error) { return json.MarshalIndent(req, "", "  ") }
