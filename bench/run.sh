#!/usr/bin/env bash
# Builds the benchmark and cncd from this checkout and runs one workload:
#
#   bash bench/run.sh --workload count-tw-bmp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binaries, per-run
# scratch files and traced runs' trace JSON.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
(
	cd "$root/bench"
	go build -o "$out/bin/bench" .
	go build -o "$out/bin/cncd" cncount/cmd/cncd
) >&2

exec "$out/bin/bench" -cncd "$out/bin/cncd" -workdir "$out" "$@"
