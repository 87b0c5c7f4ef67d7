"""ECDF fitting, jittering, and pseudo-inverse transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulasynth import MicroTable, SynthesisError, marginals_of
from copulasynth.copula import ecdf, jitter_cells, pseudo_inverse_many
from copulasynth.pipeline import rank_recode
from conftest import make_schema, small_tables


def fitted_ecdf(column, m):
    """Observed codes and the ECDF rank_recode fits to one column of codes 0..m-1."""
    codes = np.asarray(column, dtype=np.int64).reshape(-1, 1)
    recoded, marginals = rank_recode(MicroTable(make_schema([m]), codes))
    support = [int(label) for label in recoded.schema.variables[0].labels]
    return support, ecdf(marginals.counts[0])


def test_fit_ecdf_multiplicity_weighted():
    # counts (2,2,4,2) over codes 0..3 -> cumulative steps 0.2 0.4 0.8 1.0
    column = [0, 0, 1, 1, 2, 2, 2, 2, 3, 3]
    support, cum = fitted_ecdf(column, 4)
    assert support == [0, 1, 2, 3]
    assert np.allclose(cum, [0.2, 0.4, 0.8, 1.0])
    assert cum[-1] == 1.0


def test_fit_ecdf_skips_unobserved_codes():
    support, cum = fitted_ecdf([5, 5, 7], 8)
    assert support == [5, 7]
    assert np.allclose(cum, [2 / 3, 1.0])


def test_fit_ecdf_rejects_empty():
    with pytest.raises(SynthesisError, match="empty"):
        fitted_ecdf([], 2)


def test_from_counts_drops_zero_categories():
    # A zero-count category repeats the step before it and is never returned.
    assert ecdf([0, 3, 0, 1]).tolist() == [0.0, 0.75, 0.75, 1.0]
    u = [1e-12, 0.75, np.nextafter(0.75, 1.0), 1.0]
    assert pseudo_inverse_many([0, 3, 0, 1], u).tolist() == [1, 1, 3, 3]
    for bad in ([0, 0], [3, -1], [[1, 2]], []):
        with pytest.raises(SynthesisError):
            ecdf(bad)


def test_jitter_lands_in_cell_interval():
    counts = [3, 3, 4]  # steps 0.3 0.6 1.0
    rng = np.random.default_rng(0)
    for k, (lo, hi) in enumerate([(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)]):
        u = jitter_cells(counts, np.full(200, k), rng)
        assert ((lo < u) & (u <= hi)).all()


def test_jitter_cells_vectorized():
    counts = [3, 3, 4]
    rng = np.random.default_rng(1)
    cells = np.array([0, 1, 2] * 100)
    u = jitter_cells(counts, cells, rng)
    lows = np.array([0.0, 0.3, 0.6])[cells]
    highs = np.array([0.3, 0.6, 1.0])[cells]
    assert ((u > lows) & (u <= highs)).all()
    with pytest.raises(SynthesisError, match=r"outside 0\.\.2"):
        jitter_cells(counts, np.array([-1]), rng)
    with pytest.raises(SynthesisError, match=r"outside 0\.\.2"):
        jitter_cells(counts, np.array([3]), rng)
    # cells are ranks on the observed support, so a zero count has no cell
    with pytest.raises(SynthesisError, match="observed"):
        jitter_cells([3, 0, 4], np.array([0]), rng)


def test_pseudo_inverse_hand_cases():
    counts = [1, 1, 2, 1]  # steps 0.2 0.4 0.8 1.0
    u = [0.2, 0.2000001, 0.79, 0.8, 1.0, 1e-12]
    assert pseudo_inverse_many(counts, u).tolist() == [0, 1, 2, 2, 3, 0]
    for bad in (0.0, -0.1, 1.0000001, np.nan):
        with pytest.raises(SynthesisError, match=r"must lie in \(0,1\]"):
            pseudo_inverse_many(counts, np.array([0.5, bad]))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    scale=st.sampled_from([1, 1000, 10**6]),
    u=st.floats(min_value=1e-9, max_value=1.0),
)
def test_pseudo_inverse_is_galois_adjoint(counts, scale, u):
    """pseudo_inverse_many returns the least code whose CDF reaches u."""
    counts = np.array(counts) * scale
    cum = ecdf(counts)
    (x,) = pseudo_inverse_many(counts, [u])
    assert counts[x] > 0
    assert cum[x] >= u
    if x > 0:
        assert cum[x - 1] < u


def test_pseudo_inverse_of_uniform_grid_reproduces_masses():
    # u = k/10 for k=1..10 hits each category exactly count times
    grid = np.arange(1, 11) / 10.0
    out = pseudo_inverse_many([1, 3, 6], grid)
    assert np.bincount(out, minlength=3).tolist() == [1, 3, 6]


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_roundtrip_is_exact(table):
    recoded, margs = rank_recode(table)
    targets = marginals_of(table)
    for i, counts in enumerate(margs.counts):
        u = ecdf(counts)[recoded.column(i)]
        back = pseudo_inverse_many(targets.counts[i], u)
        assert (back == table.column(i)).all()
