#!/usr/bin/env bash
# Virtual-time gate of the yardstick (benchmark/).
#
#   tools/simclock.sh --check <bbbench> [seed ...]
#   tools/simclock.sh --pin <bbbench> [seed ...]
#
# Runs every workload at each seed (default 0 1 2 3) with
# `--seconds 0 --trace 1` and keeps the 90 lines tagged `sim clock`: the
# modelled cluster's times, bytes and counts, a pure function of code and
# seed.
#
# --check: diffs the build against the goldens in
# snapshots/simclock/<workload>_s<seed>.txt, every line, `simkit.events`
# included, prints each moved line and exits 1 on any, or on a missing
# golden.
# --pin: rewrites those goldens from the build. A change that moves virtual
# time or the poll count on purpose re-pins them and says why; then
# `git diff snapshots/simclock` names every moved line against the parent.
#
# Override the workload list with WORKLOADS="a b ...". Build the yardstick
# with `cargo build --release --offline -q --manifest-path
# benchmark/Cargo.toml` (`benchmark/target/release/bbbench`).
set -euo pipefail

usage() {
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

[ $# -ge 2 ] || usage
case $1 in
    --check | --pin) mode=${1#--} ;;
    *) usage ;;
esac
new=$2
shift 2
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

[ "$mode" = pin ] && mkdir -p "$goldens"
moved=0
for w in $workloads; do
    for seed in $seeds; do
        golden=$goldens/${w}_s$seed.txt
        clock "$new" "$w" "$seed" > "$tmp/new"
        n=$(wc -l < "$tmp/new")
        if [ "$mode" = pin ]; then
            if [ "$n" -eq 0 ]; then
                echo "$w seed $seed: no sim clock lines"
                exit 1
            fi
            cp "$tmp/new" "$golden"
            echo "$w seed $seed: pinned $n lines"
            continue
        fi
        if [ ! -f "$golden" ]; then
            echo "$w seed $seed: no golden at $golden (tools/simclock.sh --pin)"
            moved=1
            continue
        fi
        n=$(wc -l < "$golden")
        if [ "$n" -eq 0 ] || [ "$(wc -l < "$tmp/new")" -ne "$n" ]; then
            echo "$w seed $seed: line count $n -> $(wc -l < "$tmp/new")"
            moved=1
            continue
        fi
        ev0=$(metric simkit.events "$golden")
        ev1=$(metric simkit.events "$tmp/new")
        tr=$(metric netsim.transfers "$golden")
        if diff "$golden" "$tmp/new" > "$tmp/diff"; then
            verdict="$n lines identical"
        else
            verdict="MOVED:"
            moved=1
        fi
        echo "$w seed $seed: $verdict simkit.events $ev0 -> $ev1 ($((ev1 - ev0))), netsim.transfers $tr"
        [ "$verdict" = "MOVED:" ] && sed 's/^/    /' "$tmp/diff"
    done
done
if [ "$moved" -ne 0 ]; then
    echo "virtual time moved against $goldens: fix the change, or re-pin with --pin and say why"
fi
exit $moved
