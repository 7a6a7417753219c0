#!/usr/bin/env bash
# Virtual-time gate of the yardstick (benchmark/).
#
#   tools/simclock.sh <base-bbbench> <new-bbbench> [seed ...]
#   tools/simclock.sh --check <bbbench> [seed ...]
#   tools/simclock.sh --pin <bbbench> [seed ...]
#
# Runs every workload at each seed (default 0 1 2 3) with
# `--seconds 0 --trace 1` and keeps the 90 lines tagged `sim clock`: the
# modelled cluster's times, bytes and counts, a pure function of code and
# seed.
#
# Two builds: diffs them. `simkit.events` (task polls, a host cost that a
# change may lower on purpose) is reported apart, beside
# `netsim.transfers`; every other line must be identical. One that moved
# is printed and the script exits 1.
#
# --check: diffs one build against the goldens in
# snapshots/simclock/<workload>_s<seed>.txt, every line, `simkit.events`
# included, and exits 1 on any moved line or missing golden.
# --pin: rewrites those goldens from the build (a change that moves virtual
# time or the poll count on purpose re-pins them and says why).
#
# Override the workload list with WORKLOADS="a b ...". Build the yardstick
# with `cargo build --release --offline -q --manifest-path
# benchmark/Cargo.toml` (`benchmark/target/release/bbbench`); for a second
# checkout, set its own CARGO_TARGET_DIR=<dir> and pass
# <dir>/release/bbbench.
set -euo pipefail

usage() {
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

[ $# -ge 2 ] || usage
mode=diff
case $1 in
    --check | --pin) mode=${1#--}; shift ;;
    -*) usage ;;
esac
if [ "$mode" = diff ]; then
    base=$1 new=$2
    shift 2
else
    new=$1
    shift
fi
seeds=${*:-0 1 2 3}
workloads=${WORKLOADS:-dfsio_write dfsio_read dfsio_read_spill sort kv_openloop elastic_mixed}
goldens=$(cd "$(dirname "$0")/.." && pwd)/snapshots/simclock
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the `sim clock` lines of build $1 on workload $2, seed $3
clock() {
    "$1" --workload "$2" --seed "$3" --seconds 0 --trace 1 | grep 'sim clock' || true
}

# value of metric $1 in file $2
metric() { awk -v m="$1" '$1 == m { print $2 }' "$2"; }

# the lines of file $1 that must match: two builds may differ in polls,
# a golden pins them too
compared() {
    if [ "$mode" = diff ]; then
        grep -v '^simkit\.events ' "$1"
    else
        cat "$1"
    fi
}

[ "$mode" = pin ] && mkdir -p "$goldens"
moved=0
for w in $workloads; do
    for seed in $seeds; do
        golden=$goldens/${w}_s$seed.txt
        clock "$new" "$w" "$seed" > "$tmp/new"
        n=$(wc -l < "$tmp/new")
        case $mode in
            pin)
                if [ "$n" -eq 0 ]; then
                    echo "$w seed $seed: no sim clock lines"
                    exit 1
                fi
                cp "$tmp/new" "$golden"
                echo "$w seed $seed: pinned $n lines"
                continue
                ;;
            check)
                if [ ! -f "$golden" ]; then
                    echo "$w seed $seed: no golden at $golden (tools/simclock.sh --pin)"
                    moved=1
                    continue
                fi
                cp "$golden" "$tmp/base"
                ;;
            diff) clock "$base" "$w" "$seed" > "$tmp/base" ;;
        esac
        n=$(wc -l < "$tmp/base")
        if [ "$n" -eq 0 ] || [ "$(wc -l < "$tmp/new")" -ne "$n" ]; then
            echo "$w seed $seed: line count $n -> $(wc -l < "$tmp/new")"
            moved=1
            continue
        fi
        ev0=$(metric simkit.events "$tmp/base")
        ev1=$(metric simkit.events "$tmp/new")
        tr=$(metric netsim.transfers "$tmp/base")
        if diff <(compared "$tmp/base") <(compared "$tmp/new") > "$tmp/diff"; then
            verdict="$(compared "$tmp/base" | wc -l) lines identical"
        else
            verdict="MOVED:"
            moved=1
        fi
        echo "$w seed $seed: $verdict simkit.events $ev0 -> $ev1 ($((ev1 - ev0))), netsim.transfers $tr"
        [ "$verdict" = "MOVED:" ] && sed 's/^/    /' "$tmp/diff"
    done
done
if [ "$mode" = check ] && [ "$moved" -ne 0 ]; then
    echo "virtual time moved against $goldens: fix the change, or re-pin with --pin and say why"
fi
exit $moved
