#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Build outputs and the Go build cache
# stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# Stdlib only: nothing is ever downloaded (GOPROXY=off), and the Go
# environment file and telemetry stay out of the user's config directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off XDG_CONFIG_HOME="$build/config"
commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
