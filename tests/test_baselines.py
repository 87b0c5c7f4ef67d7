"""independent_copula: the independence copula through the target pseudo-inverse."""

import numpy as np

from copulasynth import MarginalTable, MicroTable, SynthesisConfig, generate_table
from conftest import make_schema


def independent_rows(marg, n, seed):
    """n rows drawn by independent_copula from marg, with config seed ``seed``."""
    source = MicroTable(marg.schema, np.zeros((1, marg.schema.d), dtype=np.int64))
    cfg = SynthesisConfig(source_data="x", schema="x", method="independent_copula",
                          output_size=n, seed=seed)
    syn, _ = generate_table(source, marg, cfg, cfg.seed)
    return syn


def test_degenerate_marginals_give_identical_rows():
    schema = make_schema([3, 2])
    marg = MarginalTable(schema, (np.array([0, 9, 0]), np.array([4, 0])))
    out = independent_rows(marg, 30, 0)
    assert (out.codes == [1, 0]).all()


def test_marginals_match_input_within_3_sigma():
    schema = make_schema([3])
    counts = np.array([10, 30, 60])
    marg = MarginalTable(schema, (counts,))
    n = 100_000
    out = independent_rows(marg, n, 5)
    p = counts / counts.sum()
    observed = np.bincount(out.column(0), minlength=3)
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(observed - n * p) <= 3 * sigma).all()


def test_joint_factorizes_for_binary_pair():
    schema = make_schema([2, 2])
    marg = MarginalTable(schema, (np.array([5, 5]), np.array([5, 5])))
    n = 100_000
    out = independent_rows(marg, n, 9)
    flat = out.column(0) * 2 + out.column(1)
    freqs = np.bincount(flat, minlength=4) / n
    assert np.abs(freqs - 0.25).max() < 3 * np.sqrt(0.25 * 0.75 / n)


def test_pairwise_mutual_information_vanishes():
    schema = make_schema([2, 2])
    marg = MarginalTable(schema, (np.array([3, 7]), np.array([6, 4])))
    n = 100_000
    out = independent_rows(marg, n, 13)
    joint = np.zeros((2, 2))
    np.add.at(joint, (out.column(0), out.column(1)), 1.0)
    joint /= n
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mi = float(np.sum(joint * np.log(joint / (px * py))))
    assert mi <= 0.01
