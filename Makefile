# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync when adding a gate.

GO ?= go

.PHONY: all build test fuzz race lint ndlint vet fmt staticcheck bench golden-update help

all: build test lint

build:
	$(GO) build ./...

# The benchmark is its own module importing this one through a replace
# directive, so ./... at the root does not compile it.
test:
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Short fuzz runs beyond the seed corpora, matching the CI test job's fuzz
# step. go test -fuzz takes one package and one target per run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAnalyzeMatchesReference -fuzztime 15s ./internal/coverage
	$(GO) test -run '^$$' -fuzz FuzzSnapshotCodec -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzJournalManifest -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzDecodeJobRequest -fuzztime 15s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRunWorldMatchesBruteForce -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzPairKernelsMatchAnalyses -fuzztime 15s ./internal/sim

# Full-tree race detector run — the CI "race (full tree)" gate.
race:
	$(GO) test -race ./...

# lint is every static gate: formatting, vet, and the determinism-contract
# suite. staticcheck runs too when the binary is installed (CI pins v0.4.7).
lint: fmt vet ndlint staticcheck

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The determinism-contract lint suite (see docs/ARCHITECTURE.md,
# "Correctness tooling"). Config: ndlint.json at the repo root.
ndlint:
	$(GO) run ./cmd/ndlint ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# Benchmark registry smoke runs, matching the CI bench job: one on every
# core, and one on one P, which keeps the engine rows' allocs/op
# independent of how the worker pool splits trial windows (the run CI's
# strict allocs gate compares).
bench:
	$(GO) run ./cmd/ndbench -benchtime 100ms -label local -out bench-current.json
	GOMAXPROCS=1 $(GO) run ./cmd/ndbench -benchtime 100ms -label "local, GOMAXPROCS=1" -out bench-1p.json

# Regenerate the golden result files after an intentional output change.
# Review the diff: goldens are the bit-identical determinism contract.
golden-update:
	$(GO) test ./internal/engine -run TestGolden -update

help:
	@echo "make build         - compile every package"
	@echo "make test          - run the full test suite and the benchmark module's"
	@echo "make fuzz          - 15 s fuzz runs of the fuzz targets"
	@echo "make race          - full-tree race detector run"
	@echo "make lint          - gofmt + vet + ndlint (+ staticcheck if installed)"
	@echo "make ndlint        - determinism-contract lint suite only"
	@echo "make bench         - benchmark registry smoke run"
	@echo "make golden-update - regenerate golden result files"
