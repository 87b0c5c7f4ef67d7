"""ECDF fitting, jittering, and pseudo-inverse transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulasynth import MicroTable, SynthesisError
from copulasynth.copula import EmpiricalMarginal, jitter_cells, pseudo_inverse_many
from copulasynth.pipeline import rank_recode
from conftest import make_schema, small_tables


def fitted_ecdf(column, m):
    """The ECDF rank_recode fits to one column of codes 0..m-1."""
    codes = np.asarray(column, dtype=np.int64).reshape(-1, 1)
    _, (em,) = rank_recode(MicroTable(make_schema([m]), codes))
    return em


def test_fit_ecdf_multiplicity_weighted():
    # counts (2,2,4,2) over codes 0..3 -> cumulative steps 0.2 0.4 0.8 1.0
    column = [0, 0, 1, 1, 2, 2, 2, 2, 3, 3]
    em = fitted_ecdf(column, 4)
    assert em.values.tolist() == [0, 1, 2, 3]
    assert np.allclose(em.cumprobs, [0.2, 0.4, 0.8, 1.0])
    assert em.cumprobs[-1] == 1.0


def test_fit_ecdf_skips_unobserved_codes():
    em = fitted_ecdf([5, 5, 7], 8)
    assert em.values.tolist() == [5, 7]
    assert np.allclose(em.cumprobs, [2 / 3, 1.0])


def test_fit_ecdf_rejects_empty():
    with pytest.raises(SynthesisError, match="empty"):
        fitted_ecdf([], 2)


def test_from_counts_drops_zero_categories():
    em = EmpiricalMarginal.from_counts([0, 3, 0, 1])
    assert em.values.tolist() == [1, 3]
    assert np.allclose(em.cumprobs, [0.75, 1.0])
    with pytest.raises(SynthesisError):
        EmpiricalMarginal.from_counts([0, 0])
    with pytest.raises(SynthesisError):
        EmpiricalMarginal.from_counts([3, -1])


def test_marginal_validation():
    with pytest.raises(SynthesisError):
        EmpiricalMarginal(np.array([0, 0]), np.array([0.5, 1.0]))  # not increasing
    with pytest.raises(SynthesisError):
        EmpiricalMarginal(np.array([0, 1]), np.array([0.5, 0.9]))  # last != 1
    with pytest.raises(SynthesisError):
        EmpiricalMarginal(np.array([0, 1]), np.array([0.9, 0.5]))


def test_jitter_lands_in_cell_interval():
    em = EmpiricalMarginal(np.array([0, 1, 2]), np.array([0.3, 0.6, 1.0]))
    rng = np.random.default_rng(0)
    for k, (lo, hi) in enumerate([(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)]):
        u = jitter_cells(em, np.full(200, k), rng)
        assert ((lo < u) & (u <= hi)).all()


def test_jitter_cells_vectorized():
    em = EmpiricalMarginal(np.array([0, 1, 2]), np.array([0.3, 0.6, 1.0]))
    rng = np.random.default_rng(1)
    cells = np.array([0, 1, 2] * 100)
    u = jitter_cells(em, cells, rng)
    lows = np.array([0.0, 0.3, 0.6])[cells]
    highs = np.array([0.3, 0.6, 1.0])[cells]
    assert ((u > lows) & (u <= highs)).all()
    with pytest.raises(SynthesisError, match=r"outside 0\.\.2"):
        jitter_cells(em, np.array([-1]), rng)
    with pytest.raises(SynthesisError, match=r"outside 0\.\.2"):
        jitter_cells(em, np.array([3]), rng)


def test_pseudo_inverse_hand_cases():
    em = EmpiricalMarginal(np.array([0, 1, 2, 3]), np.array([0.2, 0.4, 0.8, 1.0]))
    u = [0.2, 0.2000001, 0.79, 0.8, 1.0, 1e-12]
    assert pseudo_inverse_many(em, u).tolist() == [0, 1, 2, 2, 3, 0]
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(SynthesisError):
            pseudo_inverse_many(em, np.array([0.5, bad]))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    u=st.floats(min_value=1e-9, max_value=1.0),
)
def test_pseudo_inverse_is_galois_adjoint(counts, u):
    """pseudo_inverse_many returns the least value whose CDF reaches u."""
    em = EmpiricalMarginal.from_counts(counts)
    (x,) = pseudo_inverse_many(em, [u])
    pos = int(np.searchsorted(em.values, x))
    assert em.cumprobs[pos] >= u
    if pos > 0:
        assert em.cumprobs[pos - 1] < u


def test_pseudo_inverse_of_uniform_grid_reproduces_masses():
    # u = k/10 for k=1..10 hits each category exactly count times
    em = EmpiricalMarginal.from_counts([1, 3, 6])
    grid = np.arange(1, 11) / 10.0
    out = pseudo_inverse_many(em, grid)
    assert np.bincount(out, minlength=3).tolist() == [1, 3, 6]


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_roundtrip_is_exact(table):
    recoded, margs = rank_recode(table)
    for i, em in enumerate(margs):
        back = pseudo_inverse_many(em, em.cumprobs[recoded.column(i)])
        assert (back == table.column(i)).all()
