"""One iteration of a workload, in a fresh process.

Sets up (imports copulasynth and writes the workload's inputs), runs the
timed call sequence once between two timings of the reference kernel
(calibrate.py), checks the outputs, and prints one JSON line.
A failure in set-up exits non-zero with a traceback; a failure in the
sequence or its checks is reported in the JSON line as ``"ok": false``.

    PYTHONPATH=src python3 perfbench/worker.py --workload synth_d12 --seed 0 \
        --dir perfbench/_work/x [--size bench] [--trace] [--verify]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from copulasynth import dataset, metrics  # noqa: E402

import workloads  # noqa: E402
from calibrate import Kernel  # noqa: E402
from tracer import Tracer  # noqa: E402


def sha256(path: str) -> tuple[str, int]:
    """Digest of a file and its number of lines."""
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def check_outputs(w, paths, verify: bool):
    """Digests of the outputs, the failed checks, and the parsed table if verifying.

    Every iteration checks the row count; a verifying iteration also parses
    synthetic.csv against the schema, which rejects any unknown label, and
    checks every code against its variable's categories. The other
    iterations must match its digests.
    """
    digests, lines = {}, {}
    names = ["synthetic.csv"] + (["report.json"] if w.via_cli else [])
    for name in names:
        digests[name], lines[name] = sha256(os.path.join(paths.out, name))
    failures = []
    if lines["synthetic.csv"] != w.output_size + 1:
        failures.append(
            f"synthetic.csv has {lines['synthetic.csv'] - 1} rows, "
            f"expected {w.output_size}"
        )
    syn = None
    if verify:
        syn = dataset.load_micro_csv(paths.synthetic, dataset.load_schema(paths.schema))
        if syn.n_rows != w.output_size:
            failures.append(f"parsed {syn.n_rows} rows, expected {w.output_size}")
        if syn.n_rows and (
            (syn.codes.min(axis=0) < 0).any()
            or (syn.codes.max(axis=0) >= syn.schema.dims).any()
        ):
            failures.append("a synthetic code lies outside its variable's categories")
    return digests, failures, syn


def quality(w, paths, computed: dict, syn) -> dict:
    """SRMSE by projection size, from the report or from the sequence.

    The library sequence computes only n=1; given the parsed output, the
    benchmark adds n=2 outside the timed region.
    """
    if w.via_cli:
        with open(paths.report) as handle:
            return {int(n): v for n, v in json.load(handle)["srmse_by_n"].items()}
    out = dict(computed)
    if syn is not None:
        ref = dataset.load_micro_csv(paths.target, syn.schema)
        out[2] = metrics.srmse_projected(ref, syn, 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="empty directory to work in")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true", help="parse the output")
    parser.add_argument("--size", default="bench", help="a key of workloads.SIZES")
    args = parser.parse_args(argv)
    w = workloads.SIZES[args.size][args.workload]
    paths = workloads.write_inputs(w, args.seed, args.dir)
    setup_s = time.perf_counter() - T0

    kernel = Kernel()
    kernel.once()  # warm-up: touch the kernel's arrays before timing it
    kernel_s = kernel.time()
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    record = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    try:
        if args.trace:
            with tracer.installed():
                start = time.perf_counter()
                computed = workloads.run(w, paths)
                run_s = time.perf_counter() - start
        else:
            start = time.perf_counter()
            computed = workloads.run(w, paths)
            run_s = time.perf_counter() - start
        record["kernel_s"] = kernel_s + kernel.time()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["run_s"] = run_s
        record["digests"], failures, syn = check_outputs(w, paths, args.verify)
        record["srmse"] = quality(w, paths, computed, None if args.trace else syn)
        record["error"] = "; ".join(failures) or None
    except Exception as exc:  # the failure is counted, not raised
        record["error"] = f"{type(exc).__name__}: {exc}"
    if args.trace:
        tracer.write(os.path.join(args.dir, "spans.json"))
        if "run_s" in record:
            record["layers"] = tracer.layer_metrics(record["run_s"])
    record["ok"] = record["error"] is None
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
