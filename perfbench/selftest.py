"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs every workload's call sequence at tiny sizes through ``suite.py``,
untraced and traced, and checks that:

* every run is correct, with no failed iteration;
* each run's last line names exactly the metrics of BENCHMARK.json, with
  their units (end-to-end untraced, per-layer traced);
* the suite's report prints every end-to-end metric with its unit, the
  error rate, the SRMSE values each sequence computes, and the digests.

Exits 0 when all checks pass and 1 with a list of failures otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

# SRMSE projection sizes each sequence computes at tiny sizes.
SRMSE = {
    "synth_d12": (1, 2, 3, 4, 5),
    "generate_d20": (1, 2),
    "ipf_d14": (1, 2, 3, 4, 5),
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    suite = [sys.executable, os.path.join(HERE, "suite.py"), "--size=tiny"]
    proc = subprocess.run(
        suite + ["--seconds=0", f"--seed={SEED}"],
        capture_output=True,
        text=True,
        check=False,
    )
    failures = []
    if proc.returncode != 0:
        failures.append(f"suite.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        with open(os.path.join(HERE, "results", f"suite-seed{SEED}-tiny.json")) as handle:
            results = json.load(handle)
        report = proc.stdout.splitlines()
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for name in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "plain"), (1, "traced")):
                last = results[name][key]["last_line"]
                if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
                    failures.append(f"{name} trace {trace}: not correct: {last}")
                units = {k: v["unit"] for k, v in last["metrics"].items()}
                if units != expected[trace]:
                    failures.append(f"{name} trace {trace}: metrics {units}")
            lines = [line.split() for line in report if line.startswith(name + " ")]
            printed = {(f[1], f[2]) for f in lines if len(f) > 2}
            wanted = [(m, u) for m, u in expected[0].items()]
            wanted.append(("error_rate", "failed/attempted"))
            wanted += [(f"srmse_{n}", "score") for n in SRMSE[name]]
            wanted.append(("sha256", "synthetic.csv"))
            for metric, unit in wanted:
                if (metric, unit) not in printed:
                    failures.append(f"{name}: report lacks {metric} [{unit}]")
            if not results[name]["coverage"]["self_sum_s"] > 0:
                failures.append(f"{name}: traced layers recorded no time")
    for line in failures:
        print(f"FAIL {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
