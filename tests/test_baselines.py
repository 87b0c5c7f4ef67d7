"""Independent-marginal bootstrap sampler."""

import numpy as np
import pytest

from copulasynth import MarginalTable, SynthesisError
from copulasynth.baselines import sample_independent
from conftest import make_schema


def test_degenerate_marginals_give_identical_rows():
    schema = make_schema([3, 2])
    marg = MarginalTable(schema, (np.array([0, 9, 0]), np.array([4, 0])))
    out = sample_independent(marg, 30, np.random.default_rng(0))
    assert (out.codes == [1, 0]).all()


def test_marginals_match_input_within_3_sigma():
    schema = make_schema([3])
    counts = np.array([10, 30, 60])
    marg = MarginalTable(schema, (counts,))
    n = 100_000
    out = sample_independent(marg, n, np.random.default_rng(5))
    p = counts / counts.sum()
    observed = np.bincount(out.column(0), minlength=3)
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(observed - n * p) <= 3 * sigma).all()


def test_joint_factorizes_for_binary_pair():
    schema = make_schema([2, 2])
    marg = MarginalTable(schema, (np.array([5, 5]), np.array([5, 5])))
    n = 100_000
    out = sample_independent(marg, n, np.random.default_rng(9))
    flat = out.column(0) * 2 + out.column(1)
    freqs = np.bincount(flat, minlength=4) / n
    assert np.abs(freqs - 0.25).max() < 3 * np.sqrt(0.25 * 0.75 / n)


def test_pairwise_mutual_information_vanishes():
    schema = make_schema([2, 2])
    marg = MarginalTable(schema, (np.array([3, 7]), np.array([6, 4])))
    n = 100_000
    out = sample_independent(marg, n, np.random.default_rng(13))
    joint = np.zeros((2, 2))
    np.add.at(joint, (out.column(0), out.column(1)), 1.0)
    joint /= n
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mi = float(np.sum(joint * np.log(joint / (px * py))))
    assert mi <= 0.01


def test_sample_size_validation():
    schema = make_schema([2])
    marg = MarginalTable(schema, (np.array([1, 1]),))
    assert sample_independent(marg, 0, np.random.default_rng(0)).n_rows == 0
    with pytest.raises(SynthesisError):
        sample_independent(marg, -1, np.random.default_rng(0))
