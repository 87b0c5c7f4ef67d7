"""Command-line front end.

Subcommands: synth (run a configured experiment), evaluate (score an
existing synthetic table), marginals (tabulate a sample), permute-study
(label-order robustness), benchmark (write a shared-copula test pair).
Domain failures exit 1 with a single `error: ...` line on stderr and land
no file (see write_files); usage mistakes exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__
from .dataset import (
    load_micro_csv,
    load_schema,
    marginals_of,
    write_files,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from .errors import SynthesisError
from .metrics import EvaluationReport, evaluate
from .pipeline import (
    load_config,
    make_transfer_benchmark,
    run_experiment,
    run_permutation_study,
)


def _print_report(report: EvaluationReport) -> None:
    rows = []
    for n in sorted(report.srmse_by_n):
        rows.append((f"srmse_{n}", f"{report.srmse_by_n[n]:.6f}"))
    rows.append(("sampled_zeros", str(report.sampled_zeros)))
    rows.append(("structural_zeros", str(report.structural_zeros)))
    rows.append(("precision", f"{report.precision:.6f}"))
    rows.append(("recall", f"{report.recall:.6f}"))
    rows.append(("f1", f"{report.f1:.6f}"))
    for name, value in rows:
        print(f"{name:<18} {value}")
    for line in report.warnings:
        print(f"warning: {line}")


def _cmd_synth(args) -> int:
    config = load_config(args.config)
    if config.target_marginals == "from-source":
        print("notice: no target marginals configured; using the source sample's")
    report = run_experiment(config)
    _print_report(report)
    return 0


def _cmd_evaluate(args) -> int:
    schema = load_schema(args.schema)
    ref = load_micro_csv(args.ref, schema)
    syn = load_micro_csv(args.syn, schema)
    train = load_micro_csv(args.train, schema) if args.train is not None else ref
    report = evaluate(ref, train, syn)
    _print_report(report)
    return 0


def _cmd_marginals(args) -> int:
    schema = load_schema(args.schema)
    table = load_micro_csv(args.data, schema)
    directory, name = os.path.split(args.out)
    writer = partial(write_marginals_csv, marginals_of(table))
    write_files(directory or ".", {name: writer})
    print(f"wrote marginals for {table.n_rows} rows to {args.out}")
    return 0


def _cmd_permute_study(args) -> int:
    config = load_config(args.config)
    study = run_permutation_study(config, args.n)
    print(f"{'n':<4} {'mean':<12} {'std':<12}")
    for n in sorted(study.mean):
        print(f"{n:<4} {study.mean[n]:<12.6f} {study.std[n]:<12.6f}")
    return 0


def _cmd_benchmark(args) -> int:
    source, target = make_transfer_benchmark(seed=args.seed, marginal_skew=args.skew)
    writers = {
        "schema.json": partial(write_schema, source.schema),
        "source.csv": partial(write_micro_csv, source),
        "target.csv": partial(write_micro_csv, target),
        "target_marginals.csv": partial(write_marginals_csv, marginals_of(target)),
    }
    write_files(args.out, writers)
    print(
        f"wrote benchmark pair ({source.n_rows} source rows, "
        f"{target.n_rows} target rows) to {args.out}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulasynth",
        description="Synthesize categorical micro-populations from a source "
        "sample and target marginal totals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run a configured synthesis experiment")
    p.add_argument("--config", required=True, help="config JSON path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("evaluate", help="score a synthetic table")
    p.add_argument("--ref", required=True, help="reference microdata CSV")
    p.add_argument("--syn", required=True, help="synthetic microdata CSV")
    p.add_argument("--train", help="training microdata CSV (default: reference)")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("marginals", help="tabulate per-variable counts")
    p.add_argument("--data", required=True, help="microdata CSV")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--out", required=True, help="output marginals CSV")
    p.set_defaults(func=_cmd_marginals)

    p = sub.add_parser("permute-study", help="label-order robustness study")
    p.add_argument("--config", required=True, help="config JSON path")
    p.add_argument("--n", type=int, required=True, help="number of permutations")
    p.set_defaults(func=_cmd_permute_study)

    p = sub.add_parser("benchmark", help="write a shared-copula benchmark pair")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--skew", type=float, default=0.5, help="marginal skew in [0,1]")
    p.add_argument("--seed", type=int, default=0, help="benchmark seed")
    p.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # as stderr: escape what it cannot encode
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SynthesisError, OSError, MemoryError) as exc:
        # Escape what str.splitlines splits on, as repr does: one error line.
        breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        message = str(exc).translate({ord(c): repr(c)[1:-1] for c in breaks})
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
