#!/bin/sh
# bench-compare.sh OLD.json NEW.json — the determinism-trajectory gate.
#
# Asserts that the per-campaign results (runs, HWM, mean, pWCET
# quantiles) of NEW.json are bit-identical to OLD.json; wall-time and
# environment fields are exempt. Defaults compare the previous PR's
# committed snapshot against the current one, so CI runs it as:
#
#   make bench-json && sh scripts/bench-compare.sh
set -e
cd "$(dirname "$0")/.."
OLD=${1:-BENCH_PR5.json}
NEW=${2:-BENCH_PR13.json}
exec go run ./cmd/benchcompare "$OLD" "$NEW"
