#!/bin/sh
# bench_check.sh — compare two bench snapshots (distda-bench/v2, written by
# scripts/bench.sh) and fail when any gated benchmark regressed beyond the
# threshold. POSIX sh + awk only.
#
# Usage:
#   sh scripts/bench_check.sh BASELINE.json CURRENT.json [PATTERN] [MAX_RATIO]
#
#   PATTERN          extended-regex over benchmark names to gate on
#                    (default: the engine-loop and headline benchmarks)
#   MAX_RATIO        fail when current_mean / baseline_mean exceeds this
#                    (default 1.15, i.e. >15% slower fails)
#
# A gated benchmark also fails when its allocs_per_op exceeds the
# baseline's by more than 15% (fixed ratio 1.15). Allocation counts barely
# move between runs or hosts, so this half of the gate is nearly
# noise-free. It is skipped for a benchmark whose baseline lacks
# allocs_per_op (snapshots taken before bench.sh passed -benchmem).
#
# Benchmarks present in only one snapshot are reported but never fail the
# check (new benchmarks have no baseline; removed ones have no current).
# CI runs this as the bench regression gate; see .github/workflows/ci.yml
# for the documented override when a regression is intentional.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 BASELINE.json CURRENT.json [PATTERN] [MAX_RATIO]" >&2
    exit 2
fi
BASE=$1
CUR=$2
PATTERN=${3:-'^Benchmark(EngineLoop|ReproMatrix|BuildMatrix|Executors|PIMWorkload)'}
MAX=${4:-1.15}

# Each benchmark object is emitted on its own line by bench.sh, so a
# line-oriented awk extraction of (name, mean, allocs) is reliable for our
# own files; allocs is "-" when the snapshot lacks the field.
extract() {
    awk '
    /"name":/ {
        name = ""; mean = ""; allocs = "-"
        if (match($0, /"name": "[^"]*"/))
            name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9.]+/))
            mean = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9.]+/))
            allocs = substr($0, RSTART + 17, RLENGTH - 17)
        if (name != "" && mean != "") print name, mean, allocs
    }' "$1"
}

T=$(mktemp)
trap 'rm -f "$T"' EXIT
extract "$BASE" > "$T"

extract "$CUR" | awk -v basefile="$T" -v pattern="$PATTERN" -v max="$MAX" '
BEGIN {
    maxa = 1.15
    while ((getline line < basefile) > 0) {
        split(line, f, " ")
        base[f[1]] = f[2]
        basea[f[1]] = f[3]
    }
    close(basefile)
    fails = 0
}
{
    name = $1; cur = $2 + 0
    if (!(name in base)) {
        printf "bench_check: %-50s new (no baseline)\n", name
        next
    }
    b = base[name] + 0
    seen[name] = 1
    if (b <= 0) next
    ratio = cur / b
    gated = (name ~ pattern)
    status = "ok"
    if (ratio > max && gated) { status = "FAIL"; fails++ }
    else if (ratio > max)     { status = "slower (ungated)" }
    printf "bench_check: %-50s %12.1f -> %12.1f ns/op  %.3fx  %s\n", name, b, cur, ratio, status
    if (basea[name] == "-" || $3 == "-") next
    ba = basea[name] + 0; ca = $3 + 0
    astatus = "ok"
    if (ca > ba * maxa && gated) { astatus = "FAIL"; fails++ }
    else if (ca > ba * maxa)     { astatus = "more (ungated)" }
    if (ba > 0) aratio = sprintf("%.3fx", ca / ba); else aratio = "-"
    printf "bench_check: %-50s %12.1f -> %12.1f allocs/op  %s  %s\n", name, ba, ca, aratio, astatus
}
END {
    for (name in base)
        if (!(name in seen))
            printf "bench_check: %-50s removed (baseline only)\n", name
    if (fails) {
        printf "bench_check: %d gated check(s) regressed beyond %.2fx ns/op or %.2fx allocs/op\n", fails, max, maxa
        exit 1
    }
    printf "bench_check: OK (gate %.2fx ns/op, %.2fx allocs/op on /%s/)\n", max, maxa, pattern
}'
