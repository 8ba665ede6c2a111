#!/usr/bin/env bash
# A/A check, and the tool for parent-vs-change comparisons.
#
#   benchmark/aa.sh [--seed N] [--runs N] [BASE_TREE [CHANGE_TREE]]
#
# Runs the timed pass of every workload RUNS times per side with the same
# --seed, alternating which side goes first and reversing the workload order
# on the second run of each pair, then judges every workload x end-to-end
# metric against its bound: ok / regressed / unresolved (spread wider than
# the bound).  Exits non-zero on anything but ok.
#
# With no trees, both sides are this checkout (the A/A check).  A tree is the
# root of a checkout that has a benchmark/ directory; each side is built once
# into its own target directory and only the built binaries are run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
runs=1
trees=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
        -*) echo "unknown argument $1" >&2; exit 2 ;;
        *) trees+=("$1"); shift ;;
    esac
done
base="$(cd "${trees[0]:-$here/..}" && pwd)"
change="$(cd "${trees[1]:-$base}" && pwd)"
out="$here/out/aa"
mkdir -p "$out"

build() { # tree -> path of its benchmark binary
    local target="$1/benchmark/target"
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
    echo "$target/release/acrobat-benchmark"
}
bin_a="$(build "$base")"
bin_b="$bin_a"
same=(--same-code)
if [ "$change" != "$base" ]; then
    bin_b="$(build "$change")"
    same=()
fi

files_a=()
files_b=()
for i in $(seq 1 "$runs"); do
    # Odd pairs run the base first, even pairs the change; the second run of
    # a pair walks the workloads in reverse.
    if [ $((i % 2)) -eq 1 ]; then order=(a b); else order=(b a); fi
    flags=()
    for side in "${order[@]}"; do
        bin="$bin_a"; [ "$side" = b ] && bin="$bin_b"
        file="$out/$side$i.json"
        echo "== run $i, side $side ${flags[*]:-}" >&2
        "$bin" --seed "$seed" --trace-seconds 0 --out "$file" "${flags[@]}" >&2
        if [ "$side" = a ]; then files_a+=("$file"); else files_b+=("$file"); fi
        flags=(--reverse)
    done
done

join() { local IFS=,; echo "$*"; }
"$bin_a" --compare "$(join "${files_a[@]}")" "$(join "${files_b[@]}")" "${same[@]}"
