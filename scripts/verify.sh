#!/usr/bin/env bash
# Full verification chain: build, vet, repo-specific lint, tests,
# invariant-armed tests, the race detector over the concurrent engine,
# benchmark smoke runs, and a live scrape of the quantbench metrics
# endpoint. Run from anywhere inside the repository.
#
# Every step is a named gate: on failure the script prints exactly which
# gate tripped and stops there.
set -euo pipefail

cd "$(dirname "$0")/.."

gate() {
	local name="$1"
	shift
	echo "verify.sh: gate ${name}: $*"
	if ! "$@"; then
		echo "verify.sh: FAILED gate: ${name}" >&2
		exit 1
	fi
}

# gofmt_clean fails (listing the offenders) when any tracked Go file,
# fixtures included, is not gofmt-formatted.
gofmt_clean() {
	local out
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt must be run on:" >&2
		echo "$out" >&2
		return 1
	fi
}

# metrics_smoke boots quantbench with the HTTP observability endpoint
# and scrapes /metrics once — the flag wiring, mux and Prometheus
# rendering all have to work for the grep to succeed. Port 0 lets the
# kernel pick a free port (parallel CI jobs must not collide on a fixed
# one); quantbench prints the bound address on stderr and the poll
# below parses it from the log.
metrics_smoke() {
	local bin log addr
	bin="$(mktemp -t quantbench.XXXXXX)"
	log="$(mktemp -t quantbench.log.XXXXXX)"
	go build -o "$bin" ./cmd/quantbench
	# -mem-budget arms the governor so the budget counters are exercised,
	# not just rendered.
	"$bin" -run table3 -scale 0.02 -quiet -metrics -mem-budget 262144 \
		-http "127.0.0.1:0" -linger 30s >/dev/null 2>"$log" &
	local pid=$!
	local ok=0 body
	for _ in $(seq 1 50); do
		addr="$(sed -n 's#^quantbench: serving metrics on http://\([^/]*\)/metrics$#\1#p' "$log" | head -n 1)"
		if [ -n "$addr" ] && body="$(curl -sf "http://${addr}/metrics")" &&
			grep -q '^quantstream_engine_generated_total' <<<"$body" &&
			grep -q '^quantstream_engine_budget_bytes' <<<"$body" &&
			grep -q '^quantstream_engine_degradations_total' <<<"$body" &&
			grep -q '^quantstream_engine_checkpoint_retries_total' <<<"$body"; then
			ok=1
			break
		fi
		sleep 0.2
	done
	kill "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	rm -f "$bin" "$log"
	[ "$ok" = 1 ]
}

gate build go build ./...
gate gofmt gofmt_clean
# CI never runs scripts/bench.sh (its ratios need a quiet host), so at
# least parse it: a syntax error in its pair table would otherwise go
# unnoticed.
gate scripts-syntax bash -n scripts/bench.sh
gate vet go vet ./...
gate sketchlint go run ./cmd/sketchlint ./...
# The cross-function and hot-path rules also run as individual gates so
# a failure names the broken contract directly in CI output.
gate sketchlint-purity go run ./cmd/sketchlint -q -rules purity ./...
gate sketchlint-atomic-mix go run ./cmd/sketchlint -q -rules atomic-mix ./...
gate sketchlint-recover-swallow go run ./cmd/sketchlint -q -rules recover-swallow ./...
gate sketchlint-hotpath-alloc go run ./cmd/sketchlint -q -rules hotpath-alloc ./...
gate sketchlint-suppressions go run ./cmd/sketchlint -q -rules unused-suppression ./...
gate tests go test ./...
# The //sketch:hotpath annotations are backed by AllocsPerRun
# regression tests; run them by name so an allocation regression is
# called out as its own gate.
gate hotpath-allocs go test -run 'Allocs' ./internal/kll ./internal/req \
	./internal/ddsketch ./internal/uddsketch ./internal/moments \
	./internal/fastlog ./internal/stream ./internal/concurrent \
	./internal/sketch ./internal/checkpoint ./internal/stats
gate invariant-tests go test -tags invariants ./internal/...
# KLL and REQ share one compactor stack (internal/sketch) that keeps
# its items in sorted runs and one float32 sort kernel: KLL keeps its
# levels above 0 sorted, REQ sorts only each compactor's unsorted tail
# and merges promoted runs into ascending compactors, and the query view
# merges the runs instead of sorting every item. The exact oracle sorts
# with an in-place float64 radix sort and the moments solver runs
# blocked Newton passes. The differential tests of each against its
# reference — sort-every-compaction KLL and REQ, short-suffix resume,
# slices.Sort, sort.Float64s, the pair-sorted view, the plain Newton
# loops — run by name, with the byte goldens of KLL and REQ
# (TestCompactorBytesGolden) and the reproduction tables
# (TestReproductionGolden), plain and invariant-armed (which also
# checks every level's exact sorted prefix after every mutation), then
# both sort kernels' fuzzers run for 10 s each, so a broken sortedness
# contract, sort or kernel, or a byte or table drift, is reported as
# this gate. Minimizing a new interesting input is capped at 1 s: at the
# default 60 s it would take the whole 10 s from fuzzing.
sort_kernel() {
	local tests='TestSortedCompactionDifferential|TestSortedResumeShortSuffix|TestSortFloat32MatchesSlicesSort|TestReqSortedCompactionDifferential|TestReqSortedResumeShortSuffix|TestLevelViewMergeMatchesPairSort|TestNewtonKernelMatchesPlainLoops|TestSortFloat64MatchesSortFloat64s|TestCompactorBytesGolden|TestReproductionGolden'
	local pkgs='./internal/kll ./internal/req ./internal/sketch ./internal/maxent ./internal/stats ./internal/harness'
	go test -count=1 -run "$tests" $pkgs &&
		go test -count=1 -tags invariants -run "$tests" $pkgs &&
		go test -run '^$' -fuzz FuzzSortFloat32 -fuzztime 10s -fuzzminimizetime 1s ./internal/sketch &&
		go test -run '^$' -fuzz FuzzSortFloat64 -fuzztime 10s -fuzzminimizetime 1s ./internal/stats
}
gate sort-kernel sort_kernel
# The arrival queue links each push at its bucket's head and sorts a
# bucket once, into a staged run, when the cursor reaches it; the
# drifting Pareto source draws through a kernel that performs exactly
# math.Pow's operations on its domain. Their differential tests — the
# queue against a sorted-slice reference (mid-bucket snapshots, spills
# and below-cursor pushes included), the crash-recovery tests that
# restore a non-empty queue, and the kernel against math.Pow — run by
# name, plain and invariant-armed, then both fuzzers run for 10 s each
# (minimizing capped at 1 s, as in sort-kernel).
arrival_queue() {
	local tests='ArrivalQueue|CrashRecoveryDeterminism|ParetoPow'
	local pkgs='./internal/stream ./internal/datagen'
	go test -count=1 -run "$tests" $pkgs &&
		go test -count=1 -tags invariants -run "$tests" $pkgs &&
		go test -run '^$' -fuzz FuzzArrivalQueue -fuzztime 10s -fuzzminimizetime 1s ./internal/stream &&
		go test -run '^$' -fuzz FuzzParetoPow -fuzztime 10s -fuzzminimizetime 1s ./internal/datagen
}
gate arrival-queue arrival_queue
gate race go test -race ./internal/stream ./internal/harness
# The source stage's block handoff on a single P under the race
# detector: with one processor the producer and the coordinator share
# it, so a handoff that relied on the two running side by side would
# deadlock or starve here. The golden digests run here too: their
# serial and parallel configurations share digests, so serial ≡
# parallel is checked on one P as well.
gate gomaxprocs1 env GOMAXPROCS=1 go test -race \
	-run 'Source|Producer|Parallel|Resume|Recovery|Pane|Golden' ./internal/stream
# Crash-recovery / corruption matrix under the race detector: injected
# worker panics at every worker×partition shape, corrupt and truncated
# checkpoints, duplicate batch delivery, stalls, sliding- and
# session-window recovery, the checkpoint envelope/store suite, and the
# random-kill soak — recovered output must stay bit-identical.
gate chaos go test -race \
	-run 'CrashRecovery|Recovery|Resume|Corrupt|Fault|Duplicate|Stall|Checkpoint|Envelope|Snapshot|Store' \
	./internal/stream ./internal/checkpoint ./internal/faultinject ./internal/harness .
# Shared-sketch concurrency under the race detector: the relaxation
# property test, the epoch/CAS handoff suite, the engine integration
# tests and the multi-writer/multi-reader soak in the root package.
gate concurrent go test -race -run 'Concurrent|Relaxation|Shared|Epoch|Snapshot|Writer' \
	./internal/concurrent ./internal/stream .
# Pane sharing under the race detector: pane-merged sliding windows
# must be bit-identical to recompute-from-scratch references (serial
# and parallel), decay must be metamorphic at λ=0, pane state must
# survive crash recovery, ScaleCount must be deterministic, and the
# fused MergeScaled must match the clone-and-scale reference. Tumbling
# windows are one-pane windows of the same path, so their golden
# digests, [start, end) boundaries, lateness and late-drop accounting
# run here too, beside the sliding and session golden digests, and so
# does DDSketch's bulk MergeScaled against its per-bucket reference.
gate pane go test -race \
	-run 'Pane|Sliding|Decay|ScaleCount|MergeScaled|WeightedQuantiles|TumblingSlide|Golden|WindowBoundary|Lateness|DroppedLate' \
	./internal/stream ./internal/sketch ./internal/stats ./internal/harness ./internal/ddsketch
# UDDSketch's in-place collapses stage buckets through one scratch pool
# shared by every map-store sketch: collapse-heavy sketches built on
# several goroutines at once must stay byte-identical under the race
# detector. Each collapse test runs over both stores (map and dense).
gate uddsketch-collapse go test -race -run 'Collapse' ./internal/uddsketch
# Memory-budget governor and fault-hardened checkpoint I/O under the
# race detector: the budget-never-exceeded property, graceful
# degradation ladders on every sketch, retry/backoff over transient
# store faults, and the flaky-store soak in the root package.
gate budget go test -race \
	-run 'Budget|Degrade|Footprint|Retry|Transient|Shed|Evict|AccuracyBound' \
	./internal/budget ./internal/checkpoint ./internal/faultinject \
	./internal/kll ./internal/req ./internal/ddsketch ./internal/uddsketch \
	./internal/moments ./internal/stream ./internal/concurrent ./internal/harness .
# Smoke-run the perf-gate benchmarks (fixed iteration count: checks
# they still execute, not their timing — scripts/bench.sh does that).
gate bench-smoke-stream go test -run '^$' -bench 'BenchmarkInsertBatch|BenchmarkInsertWindow|BenchmarkStreamThroughput' -benchtime 100x .
gate bench-smoke-query go test -run '^$' -bench 'BenchmarkQuantileAll' -benchtime 100x .
gate bench-smoke-insert go test -run '^$' -bench 'BenchmarkInsertMapping|BenchmarkInsertStore|BenchmarkInsertIndexer' -benchtime 100x .
gate bench-smoke-accuracy go test -run '^$' -bench 'BenchmarkAccuracyEval' -benchtime 1x .
gate bench-smoke-concurrent go test -run '^$' -bench 'BenchmarkConcurrentInsert' -benchtime 100x .
gate bench-smoke-pane go test -run '^$' -bench 'BenchmarkSlidingThroughput' -benchtime 100x .
gate bench-smoke-budget go test -run '^$' -bench 'BenchmarkBudgetOverhead' -benchtime 100x .
gate bench-smoke-queue go test -run '^$' -bench 'BenchmarkArrivalQueue' -benchtime 100x ./internal/stream
gate bench-smoke-merge go test -run '^$' -bench 'BenchmarkMergeScaled' -benchmem -benchtime 100x ./internal/ddsketch
gate metrics-endpoint metrics_smoke
# The examples must still build and run end to end: sessionwindows
# drives the engine's tumbling, sliding and session windows,
# streamwindow its tumbling windows with late data, and slidingquantile
# a count-based sliding horizon over KLL± outside the engine.
gate example-sessions go run ./examples/sessionwindows
gate example-streamwindow go run ./examples/streamwindow
gate example-slidingquantile go run ./examples/slidingquantile

echo "verify.sh: all gates passed"
