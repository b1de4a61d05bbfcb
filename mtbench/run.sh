#!/usr/bin/env bash
# Builds the multitasking benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash mtbench/run.sh --workload shell-pipeline --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/spans"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

# Keep the caller's flags, and name the spans file after workload and seed.
workload="" seed=""
args=("$@")
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="${2:-}"; shift ;;
	--seed) seed="${2:-}"; shift ;;
	esac
	shift
done

(cd "$(dirname "$0")" && go build -o "$out/mtbench" .) >&2
exec "$out/mtbench" --spans "$out/spans/$workload-seed$seed.jsonl" "${args[@]}"
