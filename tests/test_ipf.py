"""Seed construction, cyclic fitting, and allocation."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulasynth import (
    MarginalTable,
    MicroTable,
    SynthesisError,
    allocate,
    build_seed,
    fit_ipf,
    marginals_of,
)
from copulasynth.ipf import ContingencyTable
from copulasynth.pipeline import make_transfer_benchmark
from conftest import dense, make_schema, random_table


def reference_ipf(seed, row_targets, col_targets, iters=200):
    """Straightforward 2-d raking used as an independent check."""
    t = seed.astype(float).copy()
    for _ in range(iters):
        rows = t.sum(axis=1)
        t *= np.where(rows > 0, row_targets / np.where(rows > 0, rows, 1), 1)[:, None]
        cols = t.sum(axis=0)
        t *= np.where(cols > 0, col_targets / np.where(cols > 0, cols, 1), 1)[None, :]
    return t


def dense_reference_fit(seed, targets, tol=1e-8, max_iter=1000):
    """Cyclic raking of the full dense grid, zero cells included.

    The reference for fit_ipf, which rakes only the observed cells.
    Returns the fitted grid and the number of completed cycles.
    """
    values = dense(seed)
    d = values.ndim
    totals = np.array([c.sum() for c in targets.counts], dtype=np.float64)
    common = float(totals.mean())
    goal = [targets.counts[i] * (common / totals[i]) for i in range(d)]

    def axis_sums(axis):
        return values.sum(axis=tuple(j for j in range(d) if j != axis))

    for iterations in range(1, max_iter + 1):
        for axis in range(d):
            sums = axis_sums(axis)
            factor = np.ones_like(sums)
            nz = sums > 0
            factor[nz] = goal[axis][nz] / sums[nz]
            shape = [1] * d
            shape[axis] = -1
            values *= factor.reshape(shape)
        deviation = max(np.abs(axis_sums(i) - goal[i]).max() for i in range(d))
        if deviation < tol * common:
            break
    return values, iterations


def test_build_seed_counts():
    table = MicroTable(make_schema([2, 2]), np.array([[1, 1], [0, 0], [0, 0]]))
    seed = build_seed(table)
    assert seed.cells.codes.tolist() == [[0, 0], [1, 1]]
    assert seed.values.tolist() == [2.0, 1.0]
    assert dense(seed).tolist() == [[2.0, 0.0], [0.0, 1.0]]
    assert seed.schema is table.schema
    assert seed.total == table.n_rows


def test_build_seed_rejects_empty_sample():
    with pytest.raises(SynthesisError):
        build_seed(MicroTable(make_schema([2]), np.empty((0, 1), dtype=np.int64)))


def test_ipf_runs_where_the_dense_grid_would_not_fit():
    dims = [100] * 5  # 10^10 cells
    table = random_table(dims, 40, seed=6)
    seed = build_seed(table)
    assert seed.values.size == 40
    targets = marginals_of(random_table(dims, 60, seed=7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # most target categories are unseen
        fitted = fit_ipf(seed, targets, max_iter=5)
    out = allocate(fitted, 200, np.random.default_rng(0))
    assert out.schema is table.schema and out.n_rows == 200
    cells = set(map(tuple, table.codes.tolist()))
    assert set(map(tuple, out.codes.tolist())) <= cells


@pytest.mark.parametrize("max_iter", [1000, 7])
def test_sparse_fit_matches_dense_reference(max_iter):
    rng = np.random.default_rng(12)
    for trial in range(30):
        dims = rng.integers(2, 5, size=rng.integers(2, 5)).tolist()
        table = random_table(dims, int(rng.integers(3, 40)), seed=trial)
        targets = marginals_of(random_table(dims, 80, seed=trial + 100))
        seed = build_seed(table)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = fit_ipf(seed, targets, max_iter=max_iter)
        expected, iterations = dense_reference_fit(seed, targets, max_iter=max_iter)
        assert (fitted.cells.codes == np.unique(table.codes, axis=0)).all()
        assert fitted.iterations == iterations
        assert np.allclose(dense(fitted), expected, rtol=1e-12, atol=0)


def per_axis_fit(seed, targets, tol, max_iter):
    """fit_ipf's scaling loop as a boolean-mask assignment and a fancy-index
    gather per axis step: the oracle for its divide-where and take step."""
    d, dims = seed.schema.d, seed.schema.dims
    totals = np.array([c.sum() for c in targets.counts], dtype=np.float64)
    common = float(totals.mean())
    goal = [targets.counts[i] * (common / totals[i]) for i in range(d)]
    columns = [seed.cells.column(i) for i in range(d)]

    def axis_sums(values, axis):
        return np.bincount(columns[axis], weights=values, minlength=dims[axis])

    values = np.array(seed.values, dtype=np.float64, copy=True)
    iterations, deviation = 0, math.inf
    for _ in range(max_iter):
        for axis in range(d):
            sums = axis_sums(values, axis)
            factor = np.ones_like(sums)
            nz = sums > 0
            factor[nz] = goal[axis][nz] / sums[nz]
            values *= factor[columns[axis]]
        iterations += 1
        deviation = max(
            float(np.abs(axis_sums(values, i) - goal[i]).max()) for i in range(d)
        )
        if deviation < tol * common:
            break
    return values, iterations, deviation


@st.composite
def fit_cases(draw):
    """A seed sample crowded onto low codes, so some categories have no
    seed support, and targets with zero categories (their cells are scaled
    to zero sums, which later steps leave alone) and unequal totals."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 40))
    codes = np.column_stack([(rng.random(n) ** 2 * m).astype(np.int64) for m in dims])
    counts = []
    for m in dims:
        c = rng.integers(0, 30, m) * rng.integers(0, 2, m)  # about half are zero
        c[rng.integers(m)] += int(rng.integers(1, 1000))  # a positive total
        counts.append(c)
    schema = make_schema(dims)
    tol = draw(st.sampled_from([1e-3, 1e-8, 1e-12]))
    max_iter = draw(st.integers(1, 10))
    targets = MarginalTable(schema, tuple(counts))
    return MicroTable(schema, codes), targets, tol, max_iter


@settings(max_examples=150, deadline=None)
@given(fit_cases())
def test_fit_equals_the_per_axis_loop(case):
    table, targets, tol, max_iter = case
    seed = build_seed(table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unreachable target mass
        fitted = fit_ipf(seed, targets, tol=tol, max_iter=max_iter)
    values, iterations, deviation = per_axis_fit(seed, targets, tol, max_iter)
    assert fitted.values.tolist() == values.tolist()
    assert fitted.iterations == iterations
    assert fitted.max_deviation == deviation


def test_fit_bincounts_at_ipf_d14_shape():
    """The weighted bincounts of the ipf_d14 benchmark's fit (d=14, 10k
    source rows, 10 cycles): one per axis for the support check, one per
    axis step and one per axis for each cycle's deviation check, less the
    axis-0 step of each cycle, which reuses the sums taken just before it:
    14 + 10 * 13 + 10 * 14 = 284. A change to this work re-pins it."""
    source, target = make_transfer_benchmark(
        seed=0, d=14, n_source=10_000, n_target=10_000, marginal_skew=0.5
    )
    seed, targets = build_seed(source), marginals_of(target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unreachable target mass
        with mock.patch.object(np, "bincount", wraps=np.bincount) as counted:
            fitted = fit_ipf(seed, targets, tol=1e-12, max_iter=10)
    assert fitted.iterations == 10
    assert counted.call_count == 284


def test_contingency_table_validation():
    cells = MicroTable(make_schema([2, 2]), np.array([[0, 0], [1, 1]]))
    with pytest.raises(SynthesisError):
        ContingencyTable(cells, np.zeros(3))
    with pytest.raises(SynthesisError):
        ContingencyTable(cells, np.array([1.0, -1.0]))
    with pytest.raises(SynthesisError):
        ContingencyTable(cells, np.array([np.inf, 0.0]))


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
    grid = dense(fitted)
    assert np.abs(grid - ref).max() < 1e-10
    a, b = grid[0]
    c, d = grid[1]
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
        assert (dense(fitted)[dense(seed) == 0] == 0).all()


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
    cells = MicroTable(make_schema([2, 2]), np.array([[0, 1], [1, 0]]))
    table = ContingencyTable(cells, np.array([0.0, 7.0]))
    out = allocate(table, 25, np.random.default_rng(0))
    assert (out.codes == [1, 0]).all()
    assert allocate(table, 0, np.random.default_rng(0)).n_rows == 0
    with pytest.raises(SynthesisError):
        allocate(ContingencyTable(cells, np.zeros(2)), 5, np.random.default_rng(0))


def test_allocate_two_equal_cells_balanced():
    cells = MicroTable(make_schema([2]), np.array([[0], [1]]))
    table = ContingencyTable(cells, np.array([3.5, 3.5]))
    out = allocate(table, 100_000, np.random.default_rng(1))
    assert abs(out.column(0).mean() - 0.5) < 0.005


def test_allocate_deterministic_per_stream():
    cells = MicroTable(make_schema([2, 3]), np.indices((2, 3)).reshape(2, -1).T)
    table = ContingencyTable(cells, np.arange(6) + 0.5)
    a = allocate(table, 500, np.random.default_rng(77))
    b = allocate(table, 500, np.random.default_rng(77))
    assert (a.codes == b.codes).all()
