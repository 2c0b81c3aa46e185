#!/usr/bin/env bash
# Builds the system under test and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload rank-cached --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/shuffledeckd" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/shuffledeckd and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/" ./cmd/shuffledeckd
(cd "$root/perfbench" && go build -o "$out/bin/" .)
# The benchmark runs on CPU 1 and starts the daemons there too
# (perfbench/proc.go).
exec taskset -c 1 "$out/bin/perfbench" -root "$root" "$@"
