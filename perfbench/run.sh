#!/usr/bin/env bash
# Builds progressd and the benchmark from the checkout this is run in,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload native --seed 1 --seconds 30 --trace 0
#
# Everything it builds, caches or writes goes under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/progressd" ]]; then
	echo "perfbench: no progressd source here; run from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home/go/telemetry" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# With telemetry on, the go command forks a detached upload sidecar that
# outlives the build; turning it off keeps every process this script
# starts a child that ends before it does.
printf 'off\n' >"$out/home/go/telemetry/mode"

go build -o "$out/bin/progressd" ./cmd/progressd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/progressd" -work "$out" "$@"
