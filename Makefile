# Development targets; CI (.github/workflows/ci.yml) runs `make verify`
# and `make smoke` equivalents on every push.

GO ?= go

.PHONY: build test test-short race vet fmt lint rmlint check-noalloc vuln fuzz-short verify smoke smoke-security smoke-serve smoke-metrics smoke-chaos serve bench bench-hotpath bench-json bench-json-resumed bench-compare full-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails when any file needs gofmt; CI's lint gate. rmlint is the house
# static-analysis suite (determinism / hotpath / prngdiscipline / ctxflow
# contracts; see README "Static analysis").
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rmlint ./...

# The custom analyzers alone (also runs as a vettool:
# go build -o /tmp/rmlint ./cmd/rmlint && go vet -vettool=/tmp/rmlint ./...).
rmlint:
	$(GO) run ./cmd/rmlint ./...

# Escape-analysis half of the zero-alloc contract: no //rm:hotpath span
# may contain heap traffic per go build -gcflags=-m.
check-noalloc:
	sh scripts/check-noalloc.sh

# Known-vulnerability scan; skipped gracefully where govulncheck (or the
# network its database needs) is unavailable, so offline verify still
# passes.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck failed (offline?); not blocking verify"; \
	else \
		echo "vuln: govulncheck not installed; skipping"; \
	fi

# Seed-corpus fuzz pass over the compiled-replay equivalence oracle and
# the lackey trace parser (CI runs the same targets with a time budget).
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzAccessEquivalence -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzParseLackey -fuzztime=10s ./internal/trace

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The tier-1 gate plus lint, the zero-alloc gate, the vulnerability scan
# and the race detector.
verify: lint build check-noalloc vuln race

# Exercise the binaries end-to-end at smoke scale (what CI runs).
smoke:
	$(GO) run ./cmd/paperbench -exp table2 -short -timeout 10m

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

# Kill-resume chaos smoke: SIGKILL rmserved mid-campaign with the durable
# tier and deterministic storage fault injection active, restart it on the
# same data dir, and assert the resumed result is bit-identical to a
# clean memory-only run. What CI's chaos step runs.
smoke-chaos:
	sh scripts/smoke-chaos.sh

# Run the campaign service daemon locally.
serve:
	$(GO) run ./cmd/rmserved -addr :8080

bench:
	$(GO) test -bench=. -benchtime=1x -v .

# Hot-path microbenchmarks: the compiled replay per placement policy plus
# one-worker MBPTA and baseline campaigns.
bench-hotpath:
	$(GO) test -run='^$$' -bench=HotPath -benchtime=10x .

# Short fixed-scale trajectory snapshot (per-campaign HWM/mean/pWCET and
# wall time); regenerate BENCH_PR13.json when touching the hot path
# (BENCH_JSON=path overrides the output file). CI runs this, asserts the
# results are bit-identical to every committed snapshot via
# bench-compare, and uploads the JSON as an artifact.
BENCH_JSON ?= BENCH_PR13.json
bench-json:
	$(GO) run ./cmd/paperbench -short -json $(BENCH_JSON)

# Resumed-run determinism gate input: the same trajectory regenerated with
# every campaign interrupted at a mid-campaign checkpoint and resumed
# (paperbench -resume-check). bench-compare against the committed
# snapshots must stay bit-identical -- the checkpoint/resume contract,
# measured over the whole evaluation suite.
bench-json-resumed:
	$(GO) run ./cmd/paperbench -short -resume-check -json $(BENCH_JSON)

# Determinism-trajectory gate: per-campaign HWM/mean/pWCET quantiles of
# the new snapshot must be bit-identical to the committed previous one
# (wall-time and environment fields exempt).
bench-compare:
	sh scripts/bench-compare.sh

# Paper-scale regeneration (REPRO_WORKERS=N to size the engine pool).
full-bench:
	REPRO_FULL=1 $(GO) test -bench=. -benchtime=1x -timeout=4h -v .
