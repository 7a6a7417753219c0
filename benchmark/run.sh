#!/usr/bin/env bash
# Build the benchmark once and run the suite: every workload as a process
# of its own, so host_rss_mb and host_minflt_k are per workload.
#
#   benchmark/run.sh                     # untraced pass, seed 0, all workloads
#   benchmark/run.sh --trace             # traced pass (per-layer table + span files)
#   benchmark/run.sh --seed 7 sort       # one workload, another seed
#   benchmark/run.sh --seed 1,2,3 --out DIR   # a result set for compare.py:
#                                        # DIR/<workload>.seed<N>.txt per run
#
# Shares the repository's target directory so the product crates are not
# compiled a second time (override with CARGO_TARGET_DIR).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

seeds=0 trace=0 seconds=12 out="" workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seeds="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        --out) out="$2"; shift ;;
        --trace) trace=1 ;;
        *) workloads+=("$1") ;;
    esac
    shift
done
[ ${#workloads[@]} -gt 0 ] ||
    workloads=(dfsio_write dfsio_read dfsio_read_spill sort kv_openloop elastic_mixed)
[ -z "$out" ] || mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
for w in "${workloads[@]}"; do
    for seed in ${seeds//,/ }; do
        "$CARGO_TARGET_DIR/release/bbbench" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" |
            if [ -n "$out" ]; then tee "$out/$w.seed$seed.txt"; else cat; fi
    done
done
