#!/usr/bin/env bash
# Builds the tree's CLIs and the benchmark binary from source, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload thesis --seed 1 --seconds 8 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything it writes stays under the build directory ($CARGO_TARGET_DIR
# when set, else .bench_build): the Go build cache, and a per-run
# directory with the binaries, datasets and checkpoints that is removed
# when the run ends, so no binary or dataset outlives its run.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/spans"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOPATH=$build/gopath \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOFLAGS=
run=$(mktemp -d "$build/run.XXXXXX")
trap 'rm -rf "$run"' EXIT
(cd "$root" && go build -o "$run/bin/" ./cmd/meshgen ./cmd/meshreport ./cmd/meshanalyze ./cmd/meshd) >&2
(cd "$root/perfbench" && go build -o "$run/bin/perfbench" .) >&2
"$run/bin/perfbench" -root "$root" -bin "$run/bin" -work "$run/work" -spans "$build/spans" "$@"
