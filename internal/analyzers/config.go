// Package analyzers is the repository's determinism-contract lint suite:
// five static-analysis passes (on the in-tree internal/analysis framework)
// that machine-check the invariants docs/ARCHITECTURE.md states in prose —
// no wall clock or global RNG in trial paths, sorted output from map
// iteration, all-integer mergeable accumulators, atomics never mixed with
// plain access, and golden-serialized results free of runtime metrics
// outside the stripped "runtime" key.
//
// Every pass reads its scope and allowlist from a Config (ndlint.json at
// the repository root, loaded by cmd/ndlint), so exceptions are declared
// in one reviewed file instead of silently hard-coded.
package analyzers

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/strictjson"
)

// Config is the suite's configuration document: one section per analyzer.
// The zero value runs nothing (every scope empty), so a config must state
// what it checks — a missing section cannot silently widen or narrow a
// pass.
type Config struct {
	NoDeterminism NoDeterminismConfig `json:"nodeterminism"`
	MapRange      MapRangeConfig      `json:"maprange"`
	IntAccum      IntAccumConfig      `json:"intaccum"`
	AtomicFields  AtomicFieldsConfig  `json:"atomicfields"`
	GoldenPurity  GoldenPurityConfig  `json:"goldenpurity"`
}

// NoDeterminismConfig scopes the wall-clock/global-RNG ban.
type NoDeterminismConfig struct {
	// Packages are the import-path patterns the pass applies to: exact
	// paths, "prefix/..." subtrees, or "..." for everything.
	Packages []string `json:"packages"`

	// AllowFiles suppress diagnostics in the named files (slash-separated
	// path suffixes, e.g. "internal/engine/metrics.go") — the declared
	// exceptions, typically observability code measuring wall time.
	AllowFiles []string `json:"allow_files,omitempty"`
}

// MapRangeConfig scopes the unsorted-map-iteration check.
type MapRangeConfig struct {
	Packages   []string `json:"packages"`
	AllowFiles []string `json:"allow_files,omitempty"`
}

// IntAccumConfig names the mergeable accumulator types that must stay
// all-integer.
type IntAccumConfig struct {
	// Types are fully qualified type names ("pkgpath.TypeName").
	Types []string `json:"types"`

	// AllowFields are declared field exceptions ("pkgpath.TypeName.Field").
	AllowFields []string `json:"allow_fields,omitempty"`
}

// AtomicFieldsConfig scopes the no-mixed-atomic-access check.
type AtomicFieldsConfig struct {
	Packages []string `json:"packages"`

	// AllowFuncs are the documented sync points: functions that may access
	// atomic fields plainly ("pkgpath.Func" or "pkgpath.Type.Method").
	AllowFuncs []string `json:"allow_funcs,omitempty"`
}

// GoldenPurityConfig names the golden-serialized root types and the
// metrics packages they must only reference under the runtime key.
type GoldenPurityConfig struct {
	// Roots are the result types golden files serialize
	// ("pkgpath.TypeName"); every struct type reachable from them through
	// exported, serialized fields is checked.
	Roots []string `json:"roots"`

	// MetricsPackages are the observability packages whose types may only
	// appear under RuntimeKey.
	MetricsPackages []string `json:"metrics_packages"`

	// RuntimeKey is the JSON key StripRuntime removes (default "runtime").
	RuntimeKey string `json:"runtime_key,omitempty"`
}

// LoadConfig reads and strictly parses a Config file: unknown keys and
// trailing data are rejected so a typo'd section cannot silently disable a
// pass.
func LoadConfig(path string) (Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := strictjson.Decode(bytes.NewReader(blob), &cfg); err != nil {
		return Config{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return cfg, nil
}

// All constructs the full suite under one config, in fixed order.
func All(cfg Config) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewNoDeterminism(cfg.NoDeterminism),
		NewMapRange(cfg.MapRange),
		NewIntAccum(cfg.IntAccum),
		NewAtomicFields(cfg.AtomicFields),
		NewGoldenPurity(cfg.GoldenPurity),
	}
}

// inScope reports whether pkgpath matches any of the patterns: "..."
// matches everything, "prefix/..." a subtree (including the prefix
// itself), anything else exactly.
func inScope(patterns []string, pkgpath string) bool {
	for _, pat := range patterns {
		if pat == "..." {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkgpath == prefix || strings.HasPrefix(pkgpath, prefix+"/") {
				return true
			}
			continue
		}
		if pkgpath == pat {
			return true
		}
	}
	return false
}

// fileAllowed reports whether filename (an absolute position filename)
// ends with one of the declared allowlist suffixes.
func fileAllowed(allow []string, filename string) bool {
	f := filepath.ToSlash(filename)
	for _, suffix := range allow {
		if f == suffix || strings.HasSuffix(f, "/"+suffix) {
			return true
		}
	}
	return false
}

// splitQualified splits "pkgpath.Name" on the last dot of the final path
// element: everything before the element's first dot is the package path.
func splitQualified(q string) (pkgpath, name string, err error) {
	slash := strings.LastIndexByte(q, '/')
	dot := strings.IndexByte(q[slash+1:], '.')
	if dot < 0 {
		return "", "", fmt.Errorf("qualified name %q: want \"pkgpath.Name\"", q)
	}
	return q[:slash+1+dot], q[slash+1+dot+1:], nil
}
