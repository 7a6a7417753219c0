#!/usr/bin/env python3
"""Compare two result sets of the benchmark against its bounds.

  compare.py DIR_A DIR_B   # A = parent or first set, B = change or second set
  compare.py               # run the suite twice (seeds 1-5), then compare

A result set is what `run.sh --out DIR` writes: the output of one run per
workload and seed, as `<workload>.seed<N>.txt`. Per workload and metric this
prints both medians, the relative difference of the medians (positive =
worse), the bound, the first set's own run-to-run spread (distance between
its quartiles as a share of its median) and a verdict:

  same        bit-identical on every common seed (virtual clock only)
  REAL        a virtual-clock value moved on a common seed; virtual time is
              a pure function of code + seed, so any movement is real
  unresolved  a host-clock difference inside the first set's own spread
  ok, better  outside the spread, inside the bound
  BREACH      the second set's median is worse than the first's by more
              than the bound of BENCHMARK.json; or, on a common seed, a
              virtual-clock value is worse by more than its per-seed bound
              (PER_SEED below); or a run of either set is incorrect

and exits 1 on any BREACH.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, os.pardir, "BENCHMARK.json")))
# (better, bound) on medians over the runs of a set: what the driver gates
MEDIAN = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
# (better, bound) for one seed, where a virtual-clock value is bit-exact:
# the issue's 1 %, "0 (grid step)" and "+0 absolute"
PER_SEED = {
    "sim_s": ("lower", 0.01),
    "sim_bytes_per_user_byte": ("lower", 0.01),
    "sim_op_p50_us": ("lower", 0.01),
    "sim_op_p99_us": ("lower", 0.01),
    "sim_op_p999_us": ("lower", 0.01),
    "sim_max_rate_kops": ("higher", 0.0),
    "sim_flush_lag_s": ("lower", 0.01),
    "fail_frac": ("lower", 0.0),
}


def load(directory):
    """{workload: {seed: {metric: value, "correct": bool}}}"""
    sets = {}
    for name in sorted(os.listdir(directory)):
        workload, sep, rest = name.partition(".seed")
        if not (sep and rest.endswith(".txt")):
            continue
        lines = open(os.path.join(directory, name)).read().splitlines()
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        missing = set(MEDIAN) - set(values)
        if missing:
            sys.exit(f"{name}: no {sorted(missing)} in the result line (BENCHMARK.json lists them)")
        for line in lines:
            if line.startswith("#per_seed "):
                values.update(json.loads(line[len("#per_seed "):]))
        values["fail_frac"] = result["failed"] / result["attempted"]
        values["correct"] = result["correct"]
        sets.setdefault(workload, {})[int(rest[:-len(".txt")])] = values
    return sets


def quartile_spread(values):
    """Distance between the quartiles as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def worse_by(better, a, b):
    """How much worse `b` is than `a`: a share of `a`, absolute if `a` is 0."""
    sign = 1 if better == "lower" else -1
    return sign * (b - a) / (abs(a) if a != 0 else 1)


def compare(dir_a, dir_b):
    a_sets, b_sets = load(dir_a), load(dir_b)
    breach = False
    for workload in a_sets:
        if workload not in b_sets:
            continue
        a_runs, b_runs = a_sets[workload], b_sets[workload]
        common = sorted(set(a_runs) & set(b_runs))
        print(f"## {workload} ({len(a_runs)} vs {len(b_runs)} runs, {len(common)} common seeds)")
        for label, runs in (("first", a_runs), ("second", b_runs)):
            bad = [s for s, v in runs.items() if not v["correct"]]
            if bad:
                breach = True
                print(f"BREACH: the {label} set's runs on seeds {bad} are incorrect")
        for name in list(MEDIAN) + [n for n in PER_SEED if n not in MEDIAN]:
            a = [v[name] for v in a_runs.values() if name in v]
            b = [v[name] for v in b_runs.values() if name in v]
            if not a or not b:
                continue
            better, bound = MEDIAN.get(name) or PER_SEED[name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse, spread = worse_by(better, med_a, med_b), quartile_spread(a)
            verdict = None
            if name in MEDIAN and worse > bound:
                verdict = "BREACH"
            if name in PER_SEED:
                both = [s for s in common if name in a_runs[s] and name in b_runs[s]]
                moved = [s for s in both if a_runs[s][name] != b_runs[s][name]]
                over = [s for s in moved
                        if worse_by(better, a_runs[s][name], b_runs[s][name]) > PER_SEED[name][1]]
                if over:
                    verdict = f"BREACH (over {PER_SEED[name][1]} on seeds {over})"
                elif verdict is None and both:
                    verdict = f"REAL (moved on seeds {moved})" if moved else "same"
            elif verdict is None and abs(worse) <= spread:
                verdict = "unresolved (inside the run-to-run spread)"
            if verdict is None:
                verdict = "better" if worse < 0 else "ok"
            breach |= verdict.startswith("BREACH")
            print(f"{name:<24} {med_a:>13.6g} {med_b:>13.6g}  {worse:+8.4f}  bound {bound:<5} "
                  f"spread {spread:.4f}  {verdict}")
    print("BREACH" if breach else "no breach")
    return 1 if breach else 0


def main(argv):
    if len(argv) == 2:
        return compare(*argv)
    if argv:
        print(__doc__)
        return 2
    sets = [os.path.join(HERE, "out", d) for d in ("self-a", "self-b")]
    for d in sets:
        subprocess.run([os.path.join(HERE, "run.sh"), "--seed", "1,2,3,4,5", "--out", d],
                       check=True, stdout=subprocess.DEVNULL)
    return compare(*sets)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
