#!/usr/bin/env bash
# Same-run benchmark ratios for the root package: five runs of one test
# binary, and every ratio divides two benchmarks of those runs, so both
# sides share the host, the build and the moment. Comparing one commit
# against another is perfbench's job (`perfbench compare`).
#
# Each table row names a baseline and a contender (the "Benchmark"
# prefix omitted) and prints baseline ns/op ÷ contender ns/op, each
# side the median of its 5 repeats: one lucky or unlucky repeat moves
# no ratio. Each run makes one repeat of every benchmark, so the two
# sides of a pair run back to back in every repeat and a load shift
# lands on both; with `go test -count=5` all five repeats of one side
# run before the other's. A row whose benchmark is
# missing from the run fails the script, so a renamed benchmark cannot
# drop a pair silently, and so does a row below its floor. Two rows
# have one:
#  - pane ≥ 3x: at slide = window/16 the recompute loop inserts each
#    event ~16 times and pane sharing once, so the win is structural.
#  - budget ≥ 0.98x: a slack budget that tracks but never degrades may
#    cost at most 2% against MemoryBudget 0.
# The concurrent w=1 → w=ncpu rows move only on multi-core hosts. The
# MetricsOverhead off → on row (the enabled metrics cost on a
# live-query-shaped run) and the KLL/REQ InsertBatch rows (kernels
# that differ from scalar Insert only in publishing their counters per
# batch) have no floor: same-run pairs of this size spread by more than
# the effect on a loaded host, as the budget pair does.
#
# BENCHTIME sets the per-benchmark time budget (default 1s).
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d -t bench.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
out="$tmp/out"

if ! go test -c -o "$tmp/bench.test" .; then
	echo "bench.sh: FAILED: go test -c" >&2
	exit 1
fi
for rep in 1 2 3 4 5; do
	if ! "$tmp/bench.test" -test.run '^$' -test.benchmem -test.count=1 -test.benchtime "${BENCHTIME:-1s}" \
		-test.bench '^Benchmark(InsertBatch|StreamThroughput|QuantileAll|AccuracyEval|InsertMapping|InsertIndexer|InsertStore|ConcurrentInsert|SlidingThroughput|BudgetOverhead|MetricsOverhead)$' |
		tee -a "$out"; then
		echo "bench.sh: FAILED: benchmark run $rep" >&2
		exit 1
	fi
done

# pair BASE CONTENDER [FLOOR] prints median(BASE)/median(CONTENDER) in
# ns/op over the run; it fails, naming the pair, when either benchmark
# is missing or the ratio is below FLOOR.
pair() {
	awk -v base="Benchmark$1" -v cur="Benchmark$2" -v floor="${3:-}" '
		# median of the 5 values of name: insertion-sort, take the middle.
		function median(name, n, i, j, v, a) {
			n = split(runs[name], a, " ")
			for (i = 2; i <= n; i++) {
				v = a[i] + 0
				for (j = i - 1; j >= 1 && a[j] + 0 > v; j--) a[j + 1] = a[j]
				a[j + 1] = v
			}
			return a[(n + 1) / 2] + 0
		}
		$1 ~ /^Benchmark/ && $4 == "ns/op" {
			name = $1
			sub(/-[0-9]+$/, "", name) # the -GOMAXPROCS suffix
			runs[name] = runs[name] " " $3
		}
		END {
			if (!(base in runs) || !(cur in runs)) {
				printf "bench.sh: FAILED pair %s -> %s: benchmark missing from the run\n", base, cur > "/dev/stderr"
				exit 1
			}
			r = median(base) / median(cur)
			printf "%-52s -> %-52s %7.2fx\n", base, cur, r
			if (floor != "" && r < floor) {
				printf "bench.sh: FAILED pair %s -> %s: %.2fx is below the %sx floor\n", base, cur, r, floor > "/dev/stderr"
				exit 1
			}
		}' "$out"
}

echo
echo "bench.sh: same-run ratios (baseline ns/op / contender ns/op, median of 5)"
while read -r base cur floor; do
	case "$base" in '' | '#'*) continue ;; esac
	pair "$base" "$cur" "$floor" || exit 1
done <<'EOF'
# baseline                                   contender                                    floor
InsertBatch/ddsketch/scalar                  InsertBatch/ddsketch/batch
InsertBatch/uddsketch/scalar                 InsertBatch/uddsketch/batch
InsertBatch/moments/scalar                   InsertBatch/moments/batch
InsertBatch/kll/scalar                       InsertBatch/kll/batch
InsertBatch/req/scalar                       InsertBatch/req/batch
StreamThroughput/no-delay/w=1                StreamThroughput/no-delay/w=4
StreamThroughput/exp-delay/w=1               StreamThroughput/exp-delay/w=4
QuantileAll/ddsketch/scalar                  QuantileAll/ddsketch/batch
QuantileAll/uddsketch/scalar                 QuantileAll/uddsketch/batch
AccuracyEval/w=1                             AccuracyEval/w=4
InsertMapping/logarithmic                    InsertMapping/cubic
InsertMapping/logarithmic                    InsertMapping/linear
InsertIndexer/logarithmic                    InsertIndexer/cubic
InsertStore/dense/batch                      InsertStore/paginated/batch
InsertStore/dense/scalar                     InsertStore/paginated/scalar
InsertStore/uddsketch-map/batch              InsertStore/uddsketch-dense/batch
ConcurrentInsert/kll/locked/w=4              ConcurrentInsert/kll/w=4
ConcurrentInsert/ddsketch/locked/w=4         ConcurrentInsert/ddsketch/w=4
ConcurrentInsert/kll/locked/w=1              ConcurrentInsert/kll/w=4
ConcurrentInsert/ddsketch/locked/w=1         ConcurrentInsert/ddsketch/w=4
ConcurrentInsert/kll/w=1                     ConcurrentInsert/kll/w=ncpu
ConcurrentInsert/ddsketch/w=1                ConcurrentInsert/ddsketch/w=ncpu
SlidingThroughput/recompute                  SlidingThroughput/pane                       3.0
SlidingThroughput/pane                       SlidingThroughput/pane-decay
BudgetOverhead/off                           BudgetOverhead/slack                         0.98
MetricsOverhead/off                          MetricsOverhead/on
EOF

echo "bench.sh: all pairs passed"
