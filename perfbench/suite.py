"""Every workload, untraced and traced, in one command.

    python3 perfbench/suite.py --seed 0 [--seconds S]

For each workload this runs ``run.py --trace 0`` and then ``--trace 1``
with the same seed and length (by default ``run_seconds`` from
BENCHMARK.json), and prints:

* every end-to-end metric with its unit, median, quartiles and sample
  count, plus the error rate, the SRMSE values and the output digests;
* every per-layer metric of the traced run, with each self time's share
  of the traced ``run_s``;
* the tracing overhead (traced minus untraced wall ``run_s``) and whether
  the layers' self times add up to the untraced wall ``run_s`` within it.

The combined record goes to ``perfbench/results/suite-seed<seed>[-<size>].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import RESULTS, result_name
from tracer import LAYER_COUNTS, LAYER_TIMES

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(workload: str, args, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={trace}",
        f"--size={args.size}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: run.py failed on {workload} (trace {trace})")
    stem = result_name(workload, args.seed, args.size)
    path = os.path.join(RESULTS, f"{stem}-trace{trace}.json")
    with open(path) as handle:
        record = json.load(handle)
    record["last_line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def coverage(plain: dict, traced: dict) -> dict:
    """Do the traced self times add up to the untraced run_s within the overhead?

    Both sides are wall times: the spans are not scaled by the reference kernel.
    """
    m, t = plain["metrics"], traced["metrics"]
    run_s = m["wall_run_s"]["median"]
    traced_s = t["trace.run_s"]["median"]
    self_sum = sum(t[f"{name}_s"]["median"] for name in LAYER_TIMES)
    overhead = traced_s - run_s
    slack = abs(overhead) + (m["wall_run_s"]["q3"] - m["wall_run_s"]["q1"])
    return {
        "run_s": run_s,
        "traced_run_s": traced_s,
        "overhead_s": overhead,
        "self_sum_s": self_sum,
        "gap_s": self_sum - run_s,
        "within_overhead": abs(self_sum - run_s) <= slack,
    }


def print_report(results: dict) -> None:
    print("== end-to-end metrics (tracing off)")
    print(
        f"{'workload':<13} {'metric':<15} {'unit':<17} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'n':>3}"
    )
    for name, r in results.items():
        plain = r["plain"]
        for metric, s in plain["metrics"].items():
            print(
                f"{name:<13} {metric:<15} {s['unit']:<17} {s['median']:>12.6g} "
                f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}"
            )
        rate = plain["error_rate"]
        count = f"{plain['failed']}/{plain['attempted']}"
        print(
            f"{name:<13} {'error_rate':<15} {'failed/attempted':<17} {rate:>12.6g} "
            f"{'':>12} {'':>12} {plain['attempted']:>3}  ({count})"
        )
        for metric, value in plain["srmse"].items():
            print(f"{name:<13} {metric:<15} {'score':<17} {value:>12.6g}  (deterministic)")
        for file, digest in plain["digests"].items():
            print(f"{name:<13} sha256 {file} {digest}")

    print("\n== per-layer metrics (tracing on; self time and share of traced run_s)")
    for name, r in results.items():
        t = r["traced"]["metrics"]
        traced_s = t["trace.run_s"]["median"]
        print(f"-- {name}  traced run_s {traced_s:.4g} s, n={t['trace.run_s']['n']}")
        for layer in LAYER_TIMES:
            s = t[f"{layer}_s"]
            share = s["median"] / traced_s
            print(
                f"   {layer + '_s':<30} {s['median']:>10.4g} s {share:>7.1%}  "
                f"[{s['q1']:.4g}, {s['q3']:.4g}]"
            )
        for metric, unit in LAYER_COUNTS:
            print(f"   {metric:<30} {t[metric]['median']:>10.6g} {unit}")
        ratio = t["metrics.distinct_useful_ratio"]["median"]
        print(f"   {'metrics.distinct_useful_ratio':<30} {ratio:>10.4g}")
        print(f"   {'trace.other_s':<30} {t['trace.other_s']['median']:>10.4g} s")

    print("\n== tracing overhead and coverage")
    print(
        f"{'workload':<13} {'wall_run':>9} {'traced':>9} {'overhead':>9} "
        f"{'sum self':>9} {'gap':>9}  within overhead + IQR"
    )
    for name, r in results.items():
        c = r["coverage"]
        print(
            f"{name:<13} {c['run_s']:>9.4g} {c['traced_run_s']:>9.4g} "
            f"{c['overhead_s']:>+9.3g} {c['self_sum_s']:>9.4g} {c['gap_s']:>+9.3g}  "
            f"{'yes' if c['within_overhead'] else 'NO'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--workloads", nargs="+", help="default: all of them")
    parser.add_argument("--size", default="bench", choices=("bench", "tiny", "large"))
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workloads is None:
        args.workloads = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in args.workloads:
        plain = run_one(name, args, 0)
        traced = run_one(name, args, 1)
        results[name] = {
            "plain": plain,
            "traced": traced,
            "coverage": coverage(plain, traced),
        }
    stem = result_name("suite", args.seed, args.size)
    with open(os.path.join(RESULTS, f"{stem}.json"), "w") as handle:
        json.dump(results, handle, indent=2)
    print_report(results)
    ok = all(r[k]["last_line"]["correct"] for r in results.values() for k in ("plain", "traced"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
