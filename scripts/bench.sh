#!/usr/bin/env bash
# Performance gates:
#  - stream/insert: batched-insert and stream throughput benchmarks vs
#    the recorded pre-optimization baseline
#    (results/bench_seed_stream.txt, captured on the seed engine: boxing
#    container/heap event queue, per-element scalar inserts) →
#    BENCH_stream.json. Only DDSketch, UDDSketch and moments have an
#    insert kernel; KLL's and REQ's batch rows run InsertAll's
#    per-value loop, so they are not paired.
#  - query: the DDSketch/UDDSketch multi-quantile batch kernels and
#    parallel accuracy evaluation vs the pre-kernel baseline
#    (results/bench_seed_query.txt, captured with every sketch answering
#    through the per-q scalar loop and sequential window evaluation) →
#    BENCH_query.json. KLL, REQ and moments have no kernel: both of
#    their BenchmarkQuantileAll variants run the same loop, so they are
#    not paired.
#  - insert: index-mapping family (exact log vs interpolated
#    cubic/linear), UDDSketch indexer kind, and store layout (dense vs
#    buffered-paginated) vs results/bench_seed_insert.txt; the
#    comparisons pair each legacy dimension (logarithmic mapping/indexer,
#    dense store) against its fast-path counterpart → BENCH_insert.json
#  - concurrent: shared-sketch ingestion. Self-comparison (no recorded
#    baseline): the mutex-guarded single-sketch architecture
#    (locked/w=N) is benchmarked in the same run and paired against the
#    per-writer-buffer concurrent path at equal writer count, plus
#    w=1 vs w=ncpu scaling rows → BENCH_concurrent.json. Note the
#    scaling rows only move on multi-core runners; the locked-vs-
#    concurrent pairs show the design win on any machine.
#  - pane: sliding-window pane sharing. Self-comparison: the generic
#    engine recomputing every overlapping window (each event inserted
#    into ~16 open sketches at slide = window/16) against the
#    pane-sharing engine (one insert per event, windows assembled by
#    merging panes), with a hard >= 3x speedup floor, plus the undecayed
#    pane run against the decayed one (pane-decay, λ = 1.25): what
#    exponential decay still costs on top of pane sharing →
#    BENCH_pane.json
#  - budget: memory-budget governor overhead. Self-comparison: the
#    disabled path (MemoryBudget 0) against a slack budget that tracks
#    footprints on cadence but never degrades, with a >= 0.98x floor
#    (the governor may cost at most 2% when not binding) →
#    BENCH_budget.json
#
# Each step is a named gate: on failure the script prints exactly which
# gate tripped and stops there.
#
# BENCHTIME overrides the per-benchmark time budget (default 1s).
set -euo pipefail

cd "$(dirname "$0")/.."

gate() {
	local name="$1"
	shift
	echo "bench.sh: gate ${name}: $*"
	if ! "$@"; then
		echo "bench.sh: FAILED gate: ${name}" >&2
		exit 1
	fi
}

BENCHTIME="${BENCHTIME:-1s}"
current=results/bench_stream_current.txt

bench_stream() {
	go test -run '^$' -bench 'BenchmarkInsertBatch|BenchmarkStreamThroughput' \
		-benchmem -benchtime "$BENCHTIME" . | tee "$current"
}

compare_stream() {
	go run ./cmd/benchjson \
		-baseline results/bench_seed_stream.txt \
		-current "$current" \
		-compare 'BenchmarkStreamThroughput/no-delay=BenchmarkStreamThroughput/no-delay/w=4' \
		-compare 'BenchmarkStreamThroughput/exp-delay=BenchmarkStreamThroughput/exp-delay/w=4' \
		-compare 'BenchmarkStreamThroughput/no-delay=BenchmarkStreamThroughput/no-delay/w=1' \
		-compare 'BenchmarkStreamThroughput/exp-delay=BenchmarkStreamThroughput/exp-delay/w=1' \
		-compare 'BenchmarkInsert/ddsketch=BenchmarkInsertBatch/ddsketch/batch' \
		-compare 'BenchmarkInsert/uddsketch=BenchmarkInsertBatch/uddsketch/batch' \
		-compare 'BenchmarkInsert/moments=BenchmarkInsertBatch/moments/batch' \
		-out BENCH_stream.json
}

gate stream-benchmarks bench_stream
gate stream-compare compare_stream
cat BENCH_stream.json

query_current=results/bench_query_current.txt

bench_query() {
	go test -run '^$' -bench 'BenchmarkQuantileAll|BenchmarkAccuracyEval' \
		-benchmem -benchtime "$BENCHTIME" . | tee "$query_current"
}

compare_query() {
	go run ./cmd/benchjson \
		-baseline results/bench_seed_query.txt \
		-current "$query_current" \
		-compare 'BenchmarkQuantileAll/ddsketch/scalar=BenchmarkQuantileAll/ddsketch/batch' \
		-compare 'BenchmarkQuantileAll/uddsketch/scalar=BenchmarkQuantileAll/uddsketch/batch' \
		-compare 'BenchmarkAccuracyEval/w=1=BenchmarkAccuracyEval/w=4' \
		-out BENCH_query.json
}

gate query-benchmarks bench_query
gate query-compare compare_query
cat BENCH_query.json

insert_current=results/bench_insert_current.txt

bench_insert() {
	go test -run '^$' -bench 'BenchmarkInsertMapping|BenchmarkInsertStore|BenchmarkInsertIndexer' \
		-benchmem -benchtime "$BENCHTIME" . | tee "$insert_current"
}

compare_insert() {
	go run ./cmd/benchjson \
		-baseline results/bench_seed_insert.txt \
		-current "$insert_current" \
		-compare 'BenchmarkInsertMapping/logarithmic=BenchmarkInsertMapping/cubic' \
		-compare 'BenchmarkInsertMapping/logarithmic=BenchmarkInsertMapping/linear' \
		-compare 'BenchmarkInsertIndexer/logarithmic=BenchmarkInsertIndexer/cubic' \
		-compare 'BenchmarkInsertStore/dense/batch=BenchmarkInsertStore/paginated/batch' \
		-compare 'BenchmarkInsertStore/dense/scalar=BenchmarkInsertStore/paginated/scalar' \
		-out BENCH_insert.json
}

gate insert-benchmarks bench_insert
gate insert-compare compare_insert
cat BENCH_insert.json

concurrent_current=results/bench_concurrent_current.txt

bench_concurrent() {
	go test -run '^$' -bench 'BenchmarkConcurrentInsert' \
		-benchmem -benchtime "$BENCHTIME" . | tee "$concurrent_current"
}

compare_concurrent() {
	go run ./cmd/benchjson \
		-current "$concurrent_current" \
		-compare 'BenchmarkConcurrentInsert/kll/locked/w=4=BenchmarkConcurrentInsert/kll/w=4' \
		-compare 'BenchmarkConcurrentInsert/ddsketch/locked/w=4=BenchmarkConcurrentInsert/ddsketch/w=4' \
		-compare 'BenchmarkConcurrentInsert/kll/locked/w=1=BenchmarkConcurrentInsert/kll/w=4' \
		-compare 'BenchmarkConcurrentInsert/ddsketch/locked/w=1=BenchmarkConcurrentInsert/ddsketch/w=4' \
		-compare 'BenchmarkConcurrentInsert/kll/w=1=BenchmarkConcurrentInsert/kll/w=ncpu' \
		-compare 'BenchmarkConcurrentInsert/ddsketch/w=1=BenchmarkConcurrentInsert/ddsketch/w=ncpu' \
		-out BENCH_concurrent.json
}

gate concurrent-benchmarks bench_concurrent
gate concurrent-compare compare_concurrent
cat BENCH_concurrent.json

pane_current=results/bench_pane_current.txt

bench_pane() {
	go test -run '^$' -bench 'BenchmarkSlidingThroughput' \
		-benchmem -benchtime "$BENCHTIME" . | tee "$pane_current"
}

compare_pane() {
	go run ./cmd/benchjson \
		-current "$pane_current" \
		-compare 'BenchmarkSlidingThroughput/recompute=BenchmarkSlidingThroughput/pane' \
		-compare 'BenchmarkSlidingThroughput/pane=BenchmarkSlidingThroughput/pane-decay' \
		-out BENCH_pane.json
}

# The pane win must be structural, not noise: at slide = window/16 the
# recompute baseline inserts every event ~16 times, so the shared path
# has to come out at least 3x faster on any machine.
check_pane_speedup() {
	go run ./cmd/benchjson -current "$pane_current" \
		-compare 'BenchmarkSlidingThroughput/recompute=BenchmarkSlidingThroughput/pane' |
		grep -o '"speedup": *[0-9.]*' | head -n 1 |
		awk -F': *' '{ if ($2 + 0 >= 3.0) { print "pane speedup " $2 "x (>= 3x)"; exit 0 } else { print "pane speedup " $2 "x below the 3x floor" > "/dev/stderr"; exit 1 } }'
}

gate pane-benchmarks bench_pane
gate pane-compare compare_pane
gate pane-speedup check_pane_speedup
cat BENCH_pane.json

budget_current=results/bench_budget_current.txt

bench_budget() {
	# -count=3 with benchjson's best-of-N duplicate handling: the two
	# sides differ by low single-digit percent at most, so the 0.98
	# ratio gate needs scheduler noise stripped out.
	go test -run '^$' -bench 'BenchmarkBudgetOverhead' \
		-benchmem -benchtime "$BENCHTIME" -count=3 . | tee "$budget_current"
}

compare_budget() {
	go run ./cmd/benchjson \
		-current "$budget_current" \
		-compare 'BenchmarkBudgetOverhead/off=BenchmarkBudgetOverhead/slack' \
		-out BENCH_budget.json
}

# The governor must be free when it is not binding: a run with a slack
# budget (tracked but never degrading) may cost at most 2% against the
# disabled path (MemoryBudget 0, nil governor).
check_budget_overhead() {
	go run ./cmd/benchjson -current "$budget_current" \
		-compare 'BenchmarkBudgetOverhead/off=BenchmarkBudgetOverhead/slack' |
		grep -o '"speedup": *[0-9.]*' | head -n 1 |
		awk -F': *' '{ if ($2 + 0 >= 0.98) { print "budget overhead " $2 "x (>= 0.98x)"; exit 0 } else { print "budget overhead " $2 "x below the 0.98x floor" > "/dev/stderr"; exit 1 } }'
}

gate budget-benchmarks bench_budget
gate budget-compare compare_budget
gate budget-overhead check_budget_overhead
cat BENCH_budget.json

echo "bench.sh: all gates passed"
