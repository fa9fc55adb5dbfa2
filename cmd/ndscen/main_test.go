package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestParseSpecBareArray(t *testing.T) {
	blob := []byte(`[{"name": "a", "protocol": {"kind": "optimal", "omega": 36, "eta": 0.05}, "population": 2, "trials": 10}]`)
	scenarios, err := parseSpec("spec.json", blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].Name != "a" {
		t.Fatalf("unexpected scenarios: %+v", scenarios)
	}
}

func TestParseSpecDocument(t *testing.T) {
	blob := []byte(`{"suite": "mine", "scenarios": [{"name": "a", "protocol": {"kind": "optimal", "omega": 36, "eta": 0.05}, "population": 2, "trials": 10}]}`)
	scenarios, err := parseSpec("spec.json", blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].Name != "a" {
		t.Fatalf("unexpected scenarios: %+v", scenarios)
	}
}

// A typo'd top-level key used to fall through the array parse, match the
// document shape with zero known fields, and run as an empty document.
func TestParseSpecRejectsTypoedKey(t *testing.T) {
	blob := []byte(`{"scenarioz": [{"name": "a"}]}`)
	_, err := parseSpec("spec.json", blob)
	if err == nil {
		t.Fatal("typo'd key parsed as an empty document")
	}
	if !strings.Contains(err.Error(), "scenarioz") {
		t.Fatalf("error does not name the unknown key: %v", err)
	}
}

func TestParseSpecRejectsTypoedScenarioField(t *testing.T) {
	blob := []byte(`[{"name": "a", "trails": 10}]`)
	_, err := parseSpec("spec.json", blob)
	if err == nil {
		t.Fatal("typo'd scenario field accepted")
	}
	if !strings.Contains(err.Error(), "trails") {
		t.Fatalf("error does not name the unknown field: %v", err)
	}
}

func TestParseSpecRejectsEmpty(t *testing.T) {
	for _, blob := range []string{`[]`, `{"scenarios": []}`, `{}`} {
		if _, err := parseSpec("spec.json", []byte(blob)); err == nil {
			t.Errorf("%s accepted as a runnable spec", blob)
		}
	}
}

// When neither shape parses, the error must carry both parse failures —
// the array error used to be swallowed by the fallback's unhelpful
// type-mismatch message.
func TestParseSpecReportsBothErrors(t *testing.T) {
	blob := []byte(`[{"name": "a", "trials": "ten"}]`)
	_, err := parseSpec("spec.json", blob)
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "not a scenario array") || !strings.Contains(msg, "document") {
		t.Fatalf("error does not report both parse failures: %v", err)
	}
	// The root cause — the string in an integer field — must be visible.
	if !strings.Contains(msg, "trials") && !strings.Contains(msg, "string") {
		t.Fatalf("error hides the underlying cause: %v", err)
	}
}

// -adaptive resolves registry presets first, then falls back to a JSON
// spec file; unknown names must surface the preset error (which lists the
// valid names), and typo'd spec fields must be rejected.
func TestResolveAdaptive(t *testing.T) {
	if _, err := resolveAdaptive("adaptive-eta"); err != nil {
		t.Fatalf("preset lookup failed: %v", err)
	}
	if _, err := resolveAdaptive("no-such-adaptive"); err == nil || !strings.Contains(err.Error(), "unknown adaptive sweep") {
		t.Fatalf("expected unknown-preset error, got %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "search.json")
	blob := `{
		"name": "file-search",
		"base": {"protocol": {"kind": "optimal", "omega": 36, "alpha": 1}, "population": 2, "trials": 8, "seed": 1},
		"axes": [{"field": "protocol.eta", "values": [0.01, 0.05]}],
		"objective": "bound_ratio", "goal": "max"
	}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	ap, err := resolveAdaptive(path)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Name != "file-search" || ap.Objective != "bound_ratio" {
		t.Fatalf("unexpected spec from file: %+v", ap)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "objectivez": "bound_ratio"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveAdaptive(bad); err == nil || !strings.Contains(err.Error(), "objectivez") {
		t.Fatalf("typo'd field accepted: %v", err)
	}
}

// Sweep spec files share the strict resolver: a typo'd key must error,
// not silently vanish.
func TestResolveSweepRejectsTypoedField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"name": "x", "axez": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveSweep(path); err == nil || !strings.Contains(err.Error(), "axez") {
		t.Fatalf("typo'd sweep field accepted: %v", err)
	}
}

// A sweep spec file followed by another document must be refused, not run
// from its first document.
func TestResolveSweepRejectsTrailingData(t *testing.T) {
	sp, err := engine.SweepPreset("sweep-density")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, append(blob, `{"this is": "trailing garbage"}`...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveSweep(path); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("sweep file with trailing data: got %v, want a trailing-data error", err)
	}
}

// Trailing content after the first JSON value must not be silently
// dropped — a decoder stops at the end of one value.
func TestParseSpecRejectsTrailingData(t *testing.T) {
	blob := []byte(`[{"name": "a", "protocol": {"kind": "optimal", "omega": 36, "eta": 0.05}, "population": 2, "trials": 10}] {"scenarios": []}`)
	if _, err := parseSpec("spec.json", blob); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data accepted: %v", err)
	}
}
