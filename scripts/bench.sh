#!/bin/sh
# bench.sh — the suite's performance snapshot. Runs the 16 per-kernel
# Table 1 benchmarks plus the zero-alloc steady-state step benchmarks with
# -benchmem and -count (repeated samples), and converts the output to
# BENCH_<date>.json via cmd/benchjson (schema rtrbench.bench/v2: raw
# per-run ns/op, B/op, allocs/op samples per benchmark, stamped with the
# SHA-256 of every checked-in golden digest). Repeated samples are what
# make two snapshots statistically comparable: `benchdiff old.json
# new.json` runs a Mann-Whitney U test per benchmark instead of diffing
# two n=1 numbers, and `benchdiff -ledger append` chains the snapshot into
# the tamper-evident PERF_LEDGER.jsonl history.
#
# Usage: scripts/bench.sh  (or: make bench)
#   BENCH_DATE=2026-08-05   override the date stamp / output name
#   BENCH_TIME=1x           override -benchtime for the Table 1 sweep
#   BENCH_COUNT=5           override -count (samples per benchmark, >= 5
#                           recommended — below that the U test cannot
#                           reach p < 0.05 at all)
set -eu

cd "$(dirname "$0")/.."

date_tag=${BENCH_DATE:-$(date -u +%Y-%m-%d)}
bench_time=${BENCH_TIME:-1x}
bench_count=${BENCH_COUNT:-5}
out="BENCH_${date_tag}.json"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== Table 1 per-kernel benchmarks (16 kernels, -benchtime $bench_time, -count $bench_count)"
go test -run '^$' -bench '^BenchmarkTable1_' -benchtime "$bench_time" -count "$bench_count" -benchmem . | tee -a "$tmp"

echo "== intra-kernel workers sweep (pfl/prm at 0/1/2/4/8 workers)"
# The parallel-algorithm scaling curve: w0 is the serial baseline, w1-w8 the
# deterministic parallel algorithm under growing goroutine budgets. The
# sub-benchmark names land in the snapshot as Workers/<kernel>/w<N>, so
# benchdiff tracks each point of the curve independently.
go test -run '^$' -bench '^BenchmarkWorkers$' -benchtime "$bench_time" -count "$bench_count" -benchmem . | tee -a "$tmp"

echo "== steady-state step benchmarks (zero-alloc gated, -count $bench_count)"
go test -run '^$' -bench '^BenchmarkEKFSLAMStep$' -benchtime 100x -count "$bench_count" -benchmem ./internal/core/ekfslam | tee -a "$tmp"
go test -run '^$' -bench '^BenchmarkPFLStep$' -benchtime 100x -count "$bench_count" -benchmem ./internal/core/pfl | tee -a "$tmp"

go run ./cmd/benchjson -date "$date_tag" -goldens rtrbench/testdata/golden -out "$out" <"$tmp"
echo "wrote $out"
echo "compare:  go run ./cmd/benchdiff BENCH_<old>.json $out"
echo "chain:    go run ./cmd/benchdiff -ledger append $out   (after rtrbench verify)"
