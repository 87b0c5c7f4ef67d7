"""ECDF fitting, jittering, and pseudo-inverse transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulasynth import MarginalTable, MicroTable, SynthesisError, marginals_of
from copulasynth import copula, make_transfer_benchmark, pipeline
from copulasynth.copula import cells_to_targets, codes_by_block, ecdf, jitter_cells
from copulasynth.copula import pseudo_inverse_many
from copulasynth.dataset import new_codes
from copulasynth.pipeline import rank_recode
from conftest import make_schema, small_tables
from test_pinned_outputs import large_m_tables


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
    with pytest.raises(SynthesisError, match="counts must be integers"):
        ecdf([0.5, 1.5])


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
    with pytest.raises(SynthesisError, match="cells must be integers"):
        jitter_cells(counts, [0.9, 1.7], rng)
    # cells are ranks on the observed support, so a zero count has no cell
    with pytest.raises(SynthesisError, match="observed"):
        jitter_cells([3, 0, 4], np.array([0]), rng)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=300),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_jitter_cells_is_top_minus_draw_times_width(counts, dtype, seed):
    """Bit for bit hi - r * (hi - lo), with r from a generator of the same seed."""
    cum = ecdf(counts)
    high = min(len(cum), np.iinfo(dtype).max + 1)
    cells = np.random.default_rng(seed).integers(0, high, 500)
    got = jitter_cells(counts, cells.astype(dtype), np.random.default_rng(seed))
    hi, lo = cum[cells], np.concatenate([[0.0], cum[:-1]])[cells]
    r = np.random.default_rng(seed).random(cells.shape)
    assert got.tobytes() == (hi - r * (hi - lo)).tobytes()


def test_codes_by_block_maps_each_column_through_its_marginal():
    targets = MarginalTable(make_schema([2, 3]), ([1, 1], [1, 2, 3]))
    half = np.full(4, 0.5)
    uniforms = lambda i, block: half[block]
    got = codes_by_block(targets, uniforms, new_codes(targets.schema, 4))
    assert got.codes.tolist() == [[0, 1]] * 4


def test_codes_by_block_leaves_a_live_table_alone():
    """A table's codes are owning and of its marginals' dtype, so only
    their read-only flag tells them from a fresh array: the exit refuses
    them, and the table keeps its codes."""
    table = make_transfer_benchmark(seed=3, d=3, n_source=50, n_target=50)[0]
    before = table.codes.copy()
    uniforms = lambda i, block: np.full(block.stop - block.start, 1.0)
    with pytest.raises(SynthesisError, match="codes must be writable"):
        codes_by_block(marginals_of(table), uniforms, table.codes)
    assert (table.codes == before).all() and not table.codes.flags.writeable


def test_cells_to_targets_writes_the_codes_over_cells_of_their_dtype():
    """Ranks in the target codes' dtype take the codes in place, each block
    jittered before it is overwritten: the codes equal those mapped apart."""
    source, target = make_transfer_benchmark(seed=2, d=4, n_source=500, n_target=500)
    data, ranks = rank_recode(source)
    targets = marginals_of(target)
    cells = np.array(data.codes, order="F")
    syn = cells_to_targets(cells, ranks, targets, np.random.default_rng(4))
    assert np.shares_memory(syn.codes, cells)
    rng = np.random.default_rng(4)
    jittered = lambda i, block: jitter_cells(ranks.counts[i], data.codes[block, i], rng)
    apart = codes_by_block(targets, jittered, new_codes(targets.schema, data.n_rows))
    assert (syn.codes == apart.codes).all()


def test_cells_to_targets_reads_narrower_ranks_and_fills_a_new_array():
    source, targets = large_m_tables()  # uint8 ranks, uint16 target codes
    data, ranks = rank_recode(source)
    cells = np.array(data.codes, order="F")
    syn = cells_to_targets(cells, ranks, targets, np.random.default_rng(4))
    assert (cells.dtype, syn.codes.dtype) == (np.uint8, np.uint16)
    assert not np.shares_memory(syn.codes, cells)
    assert (cells == data.codes).all()


def test_pseudo_inverse_hand_cases():
    counts = [1, 1, 2, 1]  # steps 0.2 0.4 0.8 1.0
    u = [0.2, 0.2000001, 0.79, 0.8, 1.0, 1e-12]
    assert pseudo_inverse_many(counts, u).tolist() == [0, 1, 2, 2, 3, 0]
    for bad in (0.0, -0.1, 1.0000001, np.nan):
        with pytest.raises(SynthesisError, match=r"must lie in \(0,1\]"):
            pseudo_inverse_many(counts, np.array([0.5, bad]))
    for bad in ("x", [0.5, "x"], [0.5, [0.5]], None, 1j):
        with pytest.raises(SynthesisError, match=r"must lie in \(0,1\]"):
            pseudo_inverse_many(counts, bad)
    # Only integer and float u are cast: a complex u is refused even with a
    # zero imaginary part, a string is not parsed, a bool is not 0 or 1.
    non_real = (
        np.array([0.5 + 0.3j]),
        np.array([0.5 + 0j]),
        np.array(["0.7"]),
        [True],
        np.array([True]),
        np.array([0.5], dtype=object),
    )
    for bad in non_real:
        with pytest.raises(SynthesisError, match=r"must lie in \(0,1\]"):
            pseudo_inverse_many(counts, bad)
    assert pseudo_inverse_many(counts, [1]).tolist() == [3]
    assert pseudo_inverse_many(counts, np.float32([0.5])).tolist() == [2]


@st.composite
def sparse_counts(draw):
    """1 to 300 counts, about half of them zero, so zero runs open, close
    and interrupt the list; positive counts from 1 to 10**6 put cuts close
    together as well as far apart."""
    m = draw(st.integers(1, 300))
    counts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 10**6)), min_size=m, max_size=m
        )
    )
    if not any(counts):
        counts[draw(st.integers(0, m - 1))] = 1
    return np.array(counts)


@settings(max_examples=150, deadline=None)
@given(counts=sparse_counts(), extra=st.lists(st.floats(1e-300, 1.0), max_size=20))
def test_pseudo_inverse_equals_searchsorted_exactly(counts, extra):
    """The halving count of cuts below u is searchsorted(F, u, "left"),
    on every cut, both float neighbours of every cut and 1.0."""
    cum = ecdf(counts)
    cuts = cum[:-1]
    u = np.concatenate(
        [cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0), [1.0], extra]
    )
    u = u[(u > 0.0) & (u <= 1.0)]
    got = pseudo_inverse_many(counts, u)
    want = np.searchsorted(cum, u, side="left")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert (counts[got] > 0).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 17, 300])
def test_pseudo_inverse_keeps_the_shape_of_u(m):
    counts = np.arange(1, m + 1)
    cum = ecdf(counts)
    for u in (0.5, np.asarray(1.0), [], np.empty((0, 3)), np.full((2, 3), 0.4)):
        got = pseudo_inverse_many(counts, u)
        want = np.searchsorted(cum, np.asarray(u, dtype=np.float64), side="left")
        assert type(got) is type(want) and got.dtype == want.dtype
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


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


def test_pipeline_runs_the_copula_modules_transform():
    """The pipeline holds no copy of the transform; its names are copula's."""
    assert pipeline.rank_recode is copula.rank_recode
    assert pipeline.codes_by_block is copula.codes_by_block
