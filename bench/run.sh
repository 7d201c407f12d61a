#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#   bash bench/run.sh --workload null_mac --seed 1 --seconds 16 --trace 0
# Builds the benchmark from source and runs it with the given arguments.
# Everything the go tool writes (build cache, telemetry counters, the binary)
# is sent to .bench_build/, so nothing outside the checkout is touched. The
# first call in a checkout compiles the standard library too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With a fresh config directory the go tool's telemetry is in "local" mode and
# the first go command of the day forks a detached upload sidecar that can
# outlive this script (it did, whenever the build failed fast). "telemetry off"
# is the one go command that starts no sidecar; after it none does.
go telemetry off >/dev/null 2>&1 || true
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
