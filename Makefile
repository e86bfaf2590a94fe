# Development targets; CI (.github/workflows/ci.yml) runs `make verify`
# and `make smoke` equivalents on every push.

GO ?= go

.PHONY: build test test-short race vet fmt lint vuln fuzz-short loc verify smoke smoke-examples smoke-security smoke-serve smoke-metrics serve bench bench-hotpath bench-smoke bench-json full-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails when any file needs gofmt; CI's lint gate. The two tests are
# the house static-analysis suite over the module (determinism / hotpath
# / prngdiscipline / ctxflow contracts) and the zero-alloc escape gate
# over the //rm:hotpath spans; `make test` runs them too (see README
# "Static analysis").
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -count=1 -run '^(TestSelfRun|TestNoHeapEscapeInHotpath)$$' ./internal/lint

# Known-vulnerability scan; skipped gracefully where govulncheck (or the
# network its database needs) is unavailable, so offline verify still
# passes.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck failed (offline?); not blocking verify"; \
	else \
		echo "vuln: govulncheck not installed; skipping"; \
	fi

# Seed-corpus fuzz pass over the kernel equivalence oracle, the hinted,
# folded, hit-eliding and store-eliding replay against the per-access
# reference, RM's bulk index plans against its scalar mapping, the
# lackey trace parser, the one-pass trace compiler against its two-pass
# oracle, the baseline's trace relocation and the parsers of untrusted
# bytes: service requests, checkpoints and durable-store blobs. FUZZTIME
# is the budget per target (CI runs `make fuzz-short FUZZTIME=30s`).
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzAccessEquivalence -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzCompiledReplay -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzRMIndexAll -fuzztime=$(FUZZTIME) ./internal/placement
	$(GO) test -run='^$$' -fuzz=FuzzParseLackey -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRelocate -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWireRequest -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzUnenvelope -fuzztime=$(FUZZTIME) ./internal/service

# Non-test Go lines outside perfbench and testdata: the size figure
# CHANGES.md and ROADMAP.md report deltas against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' ! -path './.git/*' ! -path './.bench_build/*' | xargs cat | wc -l

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The tier-1 gate plus lint (which holds the zero-alloc gate), the
# vulnerability scan and the race detector.
verify: lint build vuln race

# Exercise the binaries end-to-end at smoke scale (what CI runs).
smoke: smoke-examples
	$(GO) run ./cmd/paperbench -exp table2 -short -timeout 10m

# Run every example program: with cmd/ and the root Example functions
# they are the callers that define the public API.
smoke-examples:
	for d in examples/*/; do $(GO) run ./$$d || exit 1; done

# Security-evaluation smoke: all three attacker protocols swept over every
# placement x replacement design point at smoke scale.
smoke-security:
	$(GO) run ./cmd/paperbench -exp security-evict -short -timeout 10m
	$(GO) run ./cmd/paperbench -exp security-occupancy -short -timeout 10m
	$(GO) run ./cmd/paperbench -exp security-primeprobe -short -timeout 10m

# Campaign service smoke: submit, poll to completion, verify the cached
# resubmission (same fingerprint, no re-run). What CI's service step runs.
smoke-serve:
	sh scripts/smoke-serve.sh

# Observability smoke: after one campaign, /metrics must serve nonzero
# campaign/store/HTTP series, /v1/traces the campaign's span, and every
# response an X-Request-Id header.
smoke-metrics:
	sh scripts/smoke-metrics.sh

# Run the campaign service daemon locally.
serve:
	$(GO) run ./cmd/rmserved -addr :8080

bench:
	$(GO) test -bench=. -benchtime=1x -v .

# Every benchmark of every package that has one, one iteration each: a
# smoke check that they build and run (CI's bench job). The package list
# is found afresh on each run, so a new benchmark joins it.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=perfbench --exclude-dir=testdata '^func Benchmark' . | xargs -n1 dirname | sort -u)
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# Hot-path microbenchmarks: the compiled replay per placement policy plus
# one-worker MBPTA and baseline campaigns.
bench-hotpath:
	$(GO) test -run='^$$' -bench=HotPath -benchtime=10x .

# Short fixed-scale trajectory snapshot (per-campaign HWM/mean/pWCET and
# wall time), written to the uncommitted bench.json (BENCH_JSON=path
# overrides the output file). CI runs this and uploads the JSON as an
# artifact. The committed BENCH_PR*.json snapshots are the reference of
# the determinism gate, TestTrajectoryMatchesCommittedSnapshots in `make
# test`, which holds every result bit-identical to each of them, plainly
# and through the crash path; a new snapshot is committed under a new
# BENCH_PR*.json name, never written over an old one.
BENCH_JSON ?= bench.json
bench-json:
	$(GO) run ./cmd/paperbench -short -json $(BENCH_JSON)

# Paper-scale regeneration (REPRO_WORKERS=N to size the engine pool).
full-bench:
	REPRO_FULL=1 $(GO) test -bench=. -benchtime=1x -timeout=4h -v .
