#!/usr/bin/env bash
# Paired benchmark rounds: the reference benchmark at a git revision
# against the working tree, one workload run on each side per round.
#
#   scripts/paired_rounds.sh [--rounds N] [--dry-run] REV [WORKLOAD...]
#
# REV is exported with `git archive` into a temporary directory (removed
# on exit) and its benchmark package built there; the working tree's is
# built in place. Round r (0-based) runs every WORKLOAD (default: every
# workload BENCHMARK.json declares) once per side, as
# `benchmark --workload W --seed 1+r --seconds S --trace 0`, S being the
# `run_seconds` BENCHMARK.json declares (N defaults to 10). REV runs
# first in even rounds and the working tree first in odd ones, so host
# drift, which moves a single run by 20-40% on a shared VM, lands on
# both sides alike.
#
# For each workload and end-to-end metric it prints both sides'
# medians, the median of the per-round ratios (working tree / REV), in
# how many rounds the working tree read lower, and every round's ratio;
# then whether each round's two report digests matched (a speed-only
# change keeps them equal). A run that fails its own checks stops the
# script. `--dry-run` prints the commands instead of building or
# running anything.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; }

rounds=10 dry=0
while [ $# -gt 0 ]; do
    case "$1" in
        -h|--help) usage; exit 0 ;;
        --rounds) rounds=$2; shift 2 ;;
        --dry-run) dry=1; shift ;;
        -*) echo "unknown option $1" >&2; usage >&2; exit 2 ;;
        *) break ;;
    esac
done
[[ "$rounds" =~ ^[0-9]+$ ]] || { echo "not a count: $rounds" >&2; exit 2; }
[ $# -ge 1 ] || { usage >&2; exit 2; }
rev=$1
shift
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || { echo "no such revision: $rev" >&2; exit 2; }

# Workloads, end-to-end metrics and run length, as BENCHMARK.json
# declares them.
declared=$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)
metrics=$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "unit".*"bound".*/\1/p' BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$seconds" ] || { echo "BENCHMARK.json declares no run_seconds" >&2; exit 2; }
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || read -r -a workloads <<< "$(echo $declared)"
for w in "${workloads[@]}"; do
    grep -qx "$w" <<< "$declared" || { echo "unknown workload $w (declared: $(echo $declared))" >&2; exit 2; }
done

manifest=crates/bench/src/bin/benchmark/Cargo.toml
bin=crates/bench/src/bin/benchmark/target/release/benchmark
tmp=$(mktemp -d "${TMPDIR:-/tmp}/paired_rounds.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
old="$tmp/rev"

run() {
    if [ "$dry" = 1 ]; then
        echo "$*"
    else
        "$@"
    fi
}

run mkdir -p "$old"
if [ "$dry" = 1 ]; then
    echo "git archive $rev | tar -x -C $old"
else
    git archive "$rev" | tar -x -C "$old"
fi
run cargo build --release --offline --quiet --manifest-path "$old/$manifest"
run cargo build --release --offline --quiet --manifest-path "$manifest"

# One run of workload $2 with seed $3 on side $1 (old|new): its two
# JSON lines go to $tmp/<side>.<workload>.<round>.
measure() {
    local side=$1 w=$2 k=$3 r=$4 root=.
    [ "$side" = old ] && root=$old
    local out="$tmp/$side.$w.$r"
    if [ "$dry" = 1 ]; then
        echo "(cd $root && $bin --workload $w --seed $k --seconds $seconds --trace 0)"
        return
    fi
    (cd "$root" && "$bin" --workload "$w" --seed "$k" --seconds "$seconds" --trace 0) \
        | tail -n 2 > "$out" || { echo "$side $w seed $k failed" >&2; exit 1; }
    grep -q '"correct":true' "$out" || { echo "$side $w seed $k: checks failed" >&2; exit 1; }
}

for ((r = 0; r < rounds; r++)); do
    k=$((1 + r))
    for w in "${workloads[@]}"; do
        if ((r % 2 == 0)); then
            measure old "$w" "$k" "$r"
            measure new "$w" "$k" "$r"
        else
            measure new "$w" "$k" "$r"
            measure old "$w" "$k" "$r"
        fi
    done
    [ "$dry" = 1 ] || echo "round $((r + 1))/$rounds done" >&2
done
[ "$dry" = 1 ] && exit 0

# The value of metric $2 in result file $1.
value() { sed -n 's/.*"'"$2"'":{"value":\([^,}]*\).*/\1/p' "$1" | tail -n 1; }
digest() { sed -n 's/.*"report_digest":"\([0-9a-f]*\)".*/\1/p' "$1"; }

# The median of the numbers on standard input, one per line.
median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }

echo "paired rounds: working tree / $rev ($(git rev-parse --short "$rev")), $rounds rounds, seeds 1..$rounds, --seconds $seconds"
printf '%-18s %-13s %11s %11s %7s %6s  %s\n' workload metric "REV median" "tree median" ratio lower "ratio per round"
for w in "${workloads[@]}"; do
    for m in $metrics; do
        olds=() news=() ratios=()
        lower=0
        for ((r = 0; r < rounds; r++)); do
            olds+=("$(value "$tmp/old.$w.$r" "$m")")
            news+=("$(value "$tmp/new.$w.$r" "$m")")
            ratio=$(awk -v o="${olds[r]}" -v n="${news[r]}" 'BEGIN { printf "%.4f", (o > 0) ? n / o : 1 }')
            ratios+=("$ratio")
            awk -v q="$ratio" 'BEGIN { exit !(q < 1) }' && lower=$((lower + 1))
        done
        printf '%-18s %-13s %11.4g %11.4g %7.4f %3d/%-2d  %s\n' "$w" "$m" \
            "$(printf '%s\n' "${olds[@]}" | median)" "$(printf '%s\n' "${news[@]}" | median)" \
            "$(printf '%s\n' "${ratios[@]}" | median)" "$lower" "$rounds" "${ratios[*]}"
    done
    same=0
    for ((r = 0; r < rounds; r++)); do
        [ "$(digest "$tmp/old.$w.$r")" = "$(digest "$tmp/new.$w.$r")" ] && same=$((same + 1))
    done
    printf '%-18s %-13s %s\n' "$w" digest "equal in $same/$rounds rounds"
done
