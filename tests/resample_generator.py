"""A deterministic external copula generator for the pinned-output test.

Reads the header and ECDF rows that external_copula sends on stdin and
prints --n rows, each a source row drawn with replacement by Python's
Mersenne Twister seeded with --seed. Needs only the standard library, so
its output does not depend on the numpy release.
"""

import argparse
import random
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--n", type=int, required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

rows = sys.stdin.read().splitlines()[1:]
rng = random.Random(args.seed)
for _ in range(args.n):
    print(rows[int(rng.random() * len(rows))])
