package analyzers

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestRepoIsClean runs the full suite over the real module with the
// checked-in ndlint.json — the same invocation CI's ndlint job makes — and
// asserts zero findings. This is the regression lock on the violations
// fixed when the suite landed (the streaming accumulator's float worst
// field, now the integer Accum.Worst): reintroducing one fails this test,
// not just CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(filepath.Join(root, "ndlint.json"))
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root, modPath)
	pkgs, err := loader.LoadPatterns(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(All(cfg), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
