"""Compare generators on the shared-copula transfer benchmark.

For each seed, draw a source/target pair whose dependence structure is
identical but whose marginals are skewed apart, synthesize a population
with each method using the target's marginal totals, and score projected
SRMSE against the held-out target sample. Prints one row per (seed,
method) and a mean summary.

Usage:
    python3 scripts/transfer_study.py --seeds 10 --output-size 20000
"""

import argparse
from collections import defaultdict

import numpy as np

from copulasynth import (
    SynthesisConfig,
    generate_table,
    make_transfer_benchmark,
    marginals_of,
    srmse_by_size,
)
from copulasynth.pipeline import GENERATORS

# Every in-process method; external_copula needs a generator command.
METHODS = tuple(m for m in GENERATORS if m != "external_copula")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--n-source", type=int, default=6000)
    parser.add_argument("--n-target", type=int, default=6000)
    parser.add_argument("--skew", type=float, default=0.5)
    parser.add_argument("--output-size", type=int, default=20_000)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    header = ["seed", "method"] + [f"srmse_{n}" for n in args.sizes]
    print(" ".join(f"{h:<12}" for h in header))
    sums: dict[str, np.ndarray] = defaultdict(
        lambda: np.zeros(len(args.sizes))
    )
    for s in range(args.seeds):
        source, target = make_transfer_benchmark(
            seed=100 + s, d=args.d, n_source=args.n_source,
            n_target=args.n_target, marginal_skew=args.skew,
        )
        targets = marginals_of(target)
        for method in METHODS:
            config = SynthesisConfig(
                source_data="in-memory", schema="in-memory", method=method,
                output_size=args.output_size, seed=1000 + s,
            )
            synthetic, _ = generate_table(source, targets, config, 1000 + s)
            by_size = srmse_by_size(target, synthetic, args.sizes)
            scores = [by_size[n] for n in args.sizes]
            sums[method] += np.array(scores)
            row = [str(s), method] + [f"{v:.4f}" for v in scores]
            print(" ".join(f"{c:<12}" for c in row))
    print()
    for method in METHODS:
        mean = sums[method] / args.seeds
        row = ["mean", method] + [f"{v:.4f}" for v in mean]
        print(" ".join(f"{c:<12}" for c in row))


if __name__ == "__main__":
    main()
