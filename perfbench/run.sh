#!/bin/sh
# run.sh — builds the benchmark from source and runs one workload.
#
#   sh perfbench/run.sh --workload repro-matrix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' trace_event files all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -eu

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
