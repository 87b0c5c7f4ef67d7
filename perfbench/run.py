"""Benchmark entry point: measure one workload for a fixed time.

    python3 perfbench/run.py --workload synth_d12 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The workload's call sequence is run again
and again, each time in a fresh Python process (worker.py), until
``--seconds`` have passed, and at least three times. Every process builds
its inputs from ``--seed``, so one run's iterations must produce
byte-identical outputs; an iteration that raises, fails an output check or
disagrees with the first counts as failed. ``run_s`` and ``setup_s`` are
wall times scaled to the reference kernel's nominal speed (calibrate.py);
the unscaled ones are recorded as ``wall_run_s`` and ``wall_setup_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A full record (every metric's median, quartiles and sample
count, versions, digests) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

from calibrate import scale
from tracer import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

MIN_ITERATIONS = 3
DEADLINE_S = 170.0  # a run must end within 180 s, whatever --seconds says
THREADS = "1"  # BLAS/OpenMP threads per process; at most nproc

END_TO_END = (
    ("run_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
QUALITY = (("srmse_2", "score"),)
# Printed and recorded, not in BENCHMARK.json: the unscaled times and the
# reference kernel's own time (see calibrate.py).
UNSCALED = (
    ("wall_run_s", "s"),
    ("wall_rows_per_s", "rows/s"),
    ("wall_setup_s", "s"),
    ("kernel_s", "s"),
)


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def result_name(workload: str, seed: int, size: str) -> str:
    """File stem of a run's records under perfbench/results/."""
    return f"{workload}-seed{seed}" + ("" if size == "bench" else f"-{size}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_iteration(args, index: int, work: str, deadline: float) -> dict:
    """Run one worker process; returns its record, or raises SystemExit."""
    it_dir = os.path.join(work, f"it{index}")
    os.makedirs(it_dir)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--dir={it_dir}",
        f"--size={args.size}",
    ]
    cmd += ["--trace"] * args.trace + ["--verify"] * (index == 0)
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "iteration timed out", "timeout": True}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: set-up of {args.workload} failed; no result")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace and index == 0:
        stem = result_name(args.workload, args.seed, args.size)
        os.makedirs(RESULTS, exist_ok=True)
        shutil.copy(
            os.path.join(it_dir, "spans.json"),
            os.path.join(RESULTS, f"spans-{stem}.json"),
        )
    shutil.rmtree(it_dir)
    return record


def measure(args) -> list[dict]:
    """Iterate in fresh processes until --seconds pass (and MIN_ITERATIONS ran)."""
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    records: list[dict] = []
    last_wall = 0.0
    try:
        while len(records) < MIN_ITERATIONS or (
            time.monotonic() - start + last_wall <= args.seconds
        ):
            began = time.monotonic()
            records.append(run_iteration(args, len(records), work, deadline))
            last_wall = time.monotonic() - began
            if records[-1].get("timeout"):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return records


def mark_disagreements(records: list[dict]) -> None:
    """Fail every iteration whose digests or SRMSE differ from the first good one."""
    good = [r for r in records if r["ok"]]
    if not good:
        return
    first = good[0]
    for r in good[1:]:
        shared = set(r["srmse"]) & set(first["srmse"])
        if r["digests"] != first["digests"] or any(
            r["srmse"][n] != first["srmse"][n] for n in shared
        ):
            r["ok"] = False
            r["error"] = "outputs differ from the run's first iteration"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        default="bench",
        choices=("bench", "tiny", "large"),
        help="input sizes (default: the benchmark's)",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "copulasynth", "__init__.py")):
        print(f"error: no copulasynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.SIZES[args.size]:
        parser.error(f"unknown workload {args.workload!r}")
    w = workloads.SIZES[args.size][args.workload]
    records = measure(args)
    mark_disagreements(records)
    result = aggregate(args, asdict(w), records)
    os.makedirs(RESULTS, exist_ok=True)
    stem = result_name(args.workload, args.seed, args.size)
    with open(os.path.join(RESULTS, f"{stem}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=2)
    print_summary(result)

    # The last line: end-to-end metrics untraced, per-layer metrics traced.
    units = dict(LAYER_UNITS if args.trace else END_TO_END + QUALITY)
    values = {name: s["median"] for name, s in result["metrics"].items()}
    values.update(result["srmse"])
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    correct = result["failed"] == 0 and len(metrics) == len(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def aggregate(args, inputs: dict, records: list[dict]) -> dict:
    """Median, quartiles and count of every metric over the good iterations."""
    good = [r for r in records if r["ok"]]
    for r in good:
        factor = scale(r["kernel_s"])
        r["kernel_s"] = statistics.median(r["kernel_s"])
        r["wall_run_s"], r["wall_setup_s"] = r["run_s"], r["setup_s"]
        r["wall_rows_per_s"] = inputs["output_size"] / r["wall_run_s"]
        r["run_s"] = r["wall_run_s"] * factor
        r["setup_s"] = r["wall_setup_s"] * factor
        r["rows_per_s"] = inputs["output_size"] / r["run_s"]
    table = {}
    for name, unit in END_TO_END + UNSCALED if good else ():
        table[name] = {"unit": unit, **summarize([r[name] for r in good])}
    for name, unit in LAYER_UNITS if good and args.trace else ():
        table[name] = {"unit": unit, **summarize([r["layers"][name] for r in good])}
    first = good[0] if good else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_inputs": inputs,
        "versions": first.get("versions"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": int(THREADS),
        "attempted": len(records),
        "failed": len(records) - len(good),
        "error_rate": (len(records) - len(good)) / len(records),
        "errors": sorted({r["error"] for r in records if r["error"]}),
        "metrics": table,
        "srmse": {f"srmse_{n}": v for n, v in sorted(first.get("srmse", {}).items())},
        "digests": first.get("digests", {}),
    }


def print_summary(result: dict) -> None:
    print(
        f"workload {result['workload']} seed {result['seed']} "
        f"trace {result['trace']}: {result['attempted']} iterations, "
        f"{result['failed']} failed, error_rate {result['error_rate']:g}"
    )
    print(
        f"versions {result['versions']} nproc {result['nproc']} "
        f"threads {result['threads']}"
    )
    for err in result["errors"]:
        print(f"error: {err}")
    print(f"{'metric':<32} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, s in result["metrics"].items():
        print(
            f"{name:<32} {s['unit']:<7} {s['median']:>12.6g} "
            f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}"
        )
    for name, value in result["srmse"].items():
        print(f"{name:<32} {'score':<7} {value:>12.6g}")
    for name, digest in result["digests"].items():
        print(f"sha256 {name} {digest}")


if __name__ == "__main__":
    sys.exit(main())
