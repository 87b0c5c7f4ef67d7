"""Seed construction, cyclic fitting, and allocation."""

import numpy as np
import pytest

from copulasynth import (
    CapacityError,
    MarginalTable,
    MicroTable,
    SynthesisError,
    allocate,
    build_seed,
    fit_ipf,
    marginals_of,
)
from copulasynth.ipf import ContingencyTable
from conftest import make_schema, random_table


def reference_ipf(seed, row_targets, col_targets, iters=200):
    """Straightforward 2-d raking used as an independent check."""
    t = seed.astype(float).copy()
    for _ in range(iters):
        rows = t.sum(axis=1)
        t *= np.where(rows > 0, row_targets / np.where(rows > 0, rows, 1), 1)[:, None]
        cols = t.sum(axis=0)
        t *= np.where(cols > 0, col_targets / np.where(cols > 0, cols, 1), 1)[None, :]
    return t


def test_build_seed_counts():
    table = MicroTable(make_schema([2, 2]), np.array([[0, 0], [0, 0], [1, 1]]))
    seed = build_seed(table)
    assert seed.values.tolist() == [[2.0, 0.0], [0.0, 1.0]]
    assert seed.total == table.n_rows


def test_build_seed_respects_cell_budget():
    schema = make_schema([100, 100, 100, 100, 100])  # 10^10 cells
    table = MicroTable(schema, np.zeros((1, 5), dtype=np.int64))
    with pytest.raises(CapacityError, match="budget"):
        build_seed(table)
    with pytest.raises(SynthesisError):
        build_seed(MicroTable(make_schema([2]), np.empty((0, 1), dtype=np.int64)))


def test_contingency_table_validation():
    schema = make_schema([2, 2])
    with pytest.raises(SynthesisError):
        ContingencyTable(schema, np.zeros((2, 3)))
    with pytest.raises(SynthesisError):
        ContingencyTable(schema, np.array([[1.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(SynthesisError):
        ContingencyTable(schema, np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_fit_fixed_point_returns_seed_unchanged():
    table = random_table([2, 3], 60, seed=8)
    seed = build_seed(table)
    fitted = fit_ipf(seed, marginals_of(table))
    assert np.array_equal(fitted.values, seed.values)
    assert fitted.iterations == 1


def test_fit_two_by_two_against_reference_and_odds_ratio():
    schema = make_schema([2, 2])
    codes = [[0, 0]] + [[0, 1]] * 2 + [[1, 0]] * 3 + [[1, 1]] * 4
    seed = build_seed(MicroTable(schema, np.array(codes)))
    targets = MarginalTable(schema, (np.array([5, 5]), np.array([5, 5])))
    fitted = fit_ipf(seed, targets, tol=1e-12)
    ref = reference_ipf(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 5.0]),
                        np.array([5.0, 5.0]))
    assert np.abs(fitted.values - ref).max() < 1e-10
    a, b = fitted.values[0]
    c, d = fitted.values[1]
    assert (a * d) / (b * c) == pytest.approx(2 / 3, abs=1e-8)
    # analytic fixed point: a = 5*sqrt(2/3) / (1 + sqrt(2/3))
    root = np.sqrt(2 / 3)
    assert a == pytest.approx(5 * root / (1 + root), abs=1e-8)


def test_fit_renormalizes_unequal_target_totals():
    schema = make_schema([2, 2])
    seed = build_seed(random_table([2, 2], 40, seed=2))
    targets = MarginalTable(schema, (np.array([10, 10]), np.array([100, 100])))
    fitted = fit_ipf(seed, targets)
    # both axes are scaled to the mean total (110)
    assert fitted.total == pytest.approx(110.0, rel=1e-6)


def test_fit_preserves_zero_cells():
    rng = np.random.default_rng(0)
    for trial in range(20):
        dims = [2, 3] if trial % 2 else [3, 2, 2]
        table = random_table(dims, 50, seed=trial)
        seed = build_seed(table)
        targets = marginals_of(random_table(dims, 80, seed=trial + 100))
        fitted = fit_ipf(seed, targets, max_iter=50)
        assert (fitted.values[seed.values == 0] == 0).all()


def test_fit_reports_unreachable_target_mass():
    schema = make_schema([2, 2])
    # category v0=1 never appears in the seed
    table = MicroTable(schema, np.array([[0, 0], [0, 1]]))
    seed = build_seed(table)
    targets = MarginalTable(schema, (np.array([6, 4]), np.array([5, 5])))
    with pytest.warns(UserWarning, match="unreachable"):
        fitted = fit_ipf(seed, targets, max_iter=20)
    assert fitted.unreachable == (("v0", "1", 4.0),)
    assert fitted.max_deviation > 1.0  # the missing mass keeps deviation up


def test_fit_deviation_decreases_across_cycles():
    table = random_table([3, 2, 2], 300, seed=4)
    seed = build_seed(table)
    targets = marginals_of(random_table([3, 2, 2], 500, seed=14))
    deviations = [
        fit_ipf(seed, targets, tol=1e-15, max_iter=k).max_deviation
        for k in range(1, 7)
    ]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deviations, deviations[1:]))


def test_fit_parameter_validation():
    seed = build_seed(random_table([2, 2], 10, seed=0))
    targets = marginals_of(random_table([2, 2], 10, seed=1))
    with pytest.raises(SynthesisError):
        fit_ipf(seed, targets, tol=0.0)
    with pytest.raises(SynthesisError):
        fit_ipf(seed, targets, max_iter=0)
    other = marginals_of(random_table([2, 3], 10, seed=1))
    with pytest.raises(SynthesisError):
        fit_ipf(seed, other)


def test_allocate_single_cell_and_empty():
    schema = make_schema([2, 2])
    values = np.zeros((2, 2))
    values[1, 0] = 7.0
    table = ContingencyTable(schema, values)
    out = allocate(table, 25, np.random.default_rng(0))
    assert (out.codes == [1, 0]).all()
    assert allocate(table, 0, np.random.default_rng(0)).n_rows == 0
    with pytest.raises(SynthesisError):
        allocate(ContingencyTable(schema, np.zeros((2, 2))), 5,
                 np.random.default_rng(0))


def test_allocate_two_equal_cells_balanced():
    schema = make_schema([2])
    table = ContingencyTable(schema, np.array([3.5, 3.5]))
    out = allocate(table, 100_000, np.random.default_rng(1))
    assert abs(out.column(0).mean() - 0.5) < 0.005


def test_allocate_deterministic_per_stream():
    table = ContingencyTable(make_schema([2, 3]), np.arange(6).reshape(2, 3) + 0.5)
    a = allocate(table, 500, np.random.default_rng(77))
    b = allocate(table, 500, np.random.default_rng(77))
    assert (a.codes == b.codes).all()
