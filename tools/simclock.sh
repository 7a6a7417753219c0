#!/usr/bin/env bash
# Virtual-time gate between two builds of the yardstick (benchmark/).
#
#   tools/simclock.sh <base-bbbench> <new-bbbench> [seed ...]
#
# Runs every workload at each seed (default 0 1 2 3) with
# `--seconds 0 --trace 1` on both binaries and diffs the 90 lines tagged
# `sim clock`: the modelled cluster's times, bytes and counts, a pure
# function of code and seed. `simkit.events` (task polls, a host cost that
# a change may lower on purpose) is reported apart, beside
# `netsim.transfers`. Every other line must be identical: one that moved is
# printed and the script exits 1. Override the workload list with
# WORKLOADS="a b ...".
#
# Build each side from its own checkout, e.g.
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline -q \
#       --manifest-path benchmark/Cargo.toml
# and pass <dir>/release/bbbench.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base=$1 new=$2
shift 2
seeds=${*:-0 1 2 3}
workloads=${WORKLOADS:-dfsio_write dfsio_read dfsio_read_spill sort kv_openloop elastic_mixed}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# value of metric $1 in file $2
metric() { awk -v m="$1" '$1 == m { print $2 }' "$2"; }

moved=0
for w in $workloads; do
    for seed in $seeds; do
        for side in base new; do
            bin=$base
            [ "$side" = new ] && bin=$new
            "$bin" --workload "$w" --seed "$seed" --seconds 0 --trace 1 \
                | grep 'sim clock' > "$tmp/$side" || true
        done
        n=$(wc -l < "$tmp/base")
        if [ "$n" -eq 0 ] || [ "$(wc -l < "$tmp/new")" -ne "$n" ]; then
            echo "$w seed $seed: line count $n -> $(wc -l < "$tmp/new")"
            moved=1
            continue
        fi
        ev0=$(metric simkit.events "$tmp/base")
        ev1=$(metric simkit.events "$tmp/new")
        tr=$(metric netsim.transfers "$tmp/base")
        if diff <(grep -v '^simkit\.events ' "$tmp/base") \
                <(grep -v '^simkit\.events ' "$tmp/new") > "$tmp/diff"; then
            verdict="$((n - 1)) lines identical"
        else
            verdict="MOVED:"
            moved=1
        fi
        echo "$w seed $seed: $verdict simkit.events $ev0 -> $ev1 ($((ev1 - ev0))), netsim.transfers $tr"
        [ "$verdict" = "MOVED:" ] && sed 's/^/    /' "$tmp/diff"
    done
done
exit $moved
