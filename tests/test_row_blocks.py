"""Row-wise generation runs over blocks of dataset.ROW_BLOCK rows.

BN sampling and the copula exit draw and map a block at a time. Every
copula method maps its uniforms through codes_by_block, the one uniforms
-> codes loop, and the exit writes target codes over the sampled ranks in
place. Their codes must not depend on the block size, so each is run with
the block patched to a few rows and compared with one block, at row
counts on both sides of every block boundary.

Evaluation counts and marks keys a row block at a time too, so its
counts, presence masks and report are checked against whole-array
np.bincount and against the default block in the same way.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from copulasynth import (
    MicroTable,
    SynthesisConfig,
    evaluate,
    fit_parameters,
    generate_table,
    learn_structure,
    make_transfer_benchmark,
    marginals_of,
    sample_bayesnet,
)
from copulasynth import dataset, metrics
from copulasynth.copula import codes_by_block, rank_recode
from test_pinned_outputs import large_m_tables

GENERATOR = Path(__file__).resolve().parent / "resample_generator.py"
BLOCKS = (1, 3, 7)
SOURCE, TARGET = make_transfer_benchmark(seed=3, d=4, n_source=300, n_target=300)
TARGETS = marginals_of(TARGET)


def row_counts(block):
    """0, 1, and the counts on both sides of the first and second boundary."""
    return sorted({0, 1, block - 1, block, block + 1, 2 * block + 3})


def patched(monkeypatch, block, call):
    with monkeypatch.context() as m:
        m.setattr(dataset, "ROW_BLOCK", block)
        return call()


def test_consecutive_random_blocks_equal_one_draw():
    """The blocked stages rely on numpy's Generator giving the same doubles
    whether random is drawn whole or in consecutive blocks."""
    whole = np.random.default_rng(5).random(1000)
    rng = np.random.default_rng(5)
    parts = [rng.random(k) for k in (1, 0, 3, 7, 32, 957)]
    assert np.concatenate(parts).tobytes() == whole.tobytes(), np.__version__


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    for block in BLOCKS:
        for n in row_counts(block):
            slices = patched(monkeypatch, block, lambda: list(dataset.row_blocks(n)))
            assert [s.stop - s.start for s in slices][:-1] == [block] * (len(slices) - 1)
            assert [r for s in slices for r in range(n)[s]] == list(range(n))


@pytest.mark.parametrize("block", BLOCKS)
def test_sample_codes_do_not_depend_on_the_block(monkeypatch, block):
    data, _ = rank_recode(SOURCE)
    bn = fit_parameters(data, learn_structure(data, max_parents=2, seed=1))
    for n in row_counts(block):
        draw = lambda: sample_bayesnet(bn, n, np.random.default_rng(n)).codes
        assert (patched(monkeypatch, block, draw) == draw()).all(), n


@pytest.mark.parametrize("block", BLOCKS)
def test_codes_by_block_do_not_depend_on_the_block(monkeypatch, block):
    for n in row_counts(block):
        uniforms = 1.0 - np.random.default_rng(n).random((TARGETS.schema.d, n))
        column = lambda i, block: uniforms[i, block]
        out = lambda: dataset.new_codes(TARGETS.schema, n)
        call = lambda: codes_by_block(TARGETS, column, out()).codes
        assert (patched(monkeypatch, block, call) == call()).all(), n


@pytest.mark.parametrize("block", BLOCKS)
def test_codes_by_block_asks_for_each_column_then_each_block_in_order(monkeypatch, block):
    n, calls = 2 * block + 3, []

    def uniforms(i, rows):
        calls.append((i, rows.start, rows.stop))
        return np.full(rows.stop - rows.start, 0.5)

    out = dataset.new_codes(TARGETS.schema, n)
    patched(monkeypatch, block, lambda: codes_by_block(TARGETS, uniforms, out))
    d, starts = TARGETS.schema.d, range(0, n, block)
    assert calls == [(i, lo, min(lo + block, n)) for i in range(d) for lo in starts]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("method", ["bn_copula", "external_copula", "independent_copula"])
def test_generate_table_codes_do_not_depend_on_the_block(monkeypatch, method, block):
    for n in row_counts(block):
        if n == 0:  # output_size must be positive
            continue
        cfg = SynthesisConfig(
            source_data="x", schema="x", method=method, output_size=n, seed=2,
            external_command=(sys.executable, str(GENERATOR)),
        )
        call = lambda: generate_table(SOURCE, TARGETS, cfg, 2)[0].codes
        assert (patched(monkeypatch, block, call) == call()).all(), n


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("method", ["bn_copula", "external_copula"])
def test_exit_over_narrow_ranks_does_not_depend_on_the_block(monkeypatch, method, block):
    """The source shows 225 of 300 categories, so its ranks are uint8 and
    the target codes uint16: the exit reads the ranks and writes the codes
    apart. Where the dtypes agree (the tests above) it writes over them."""
    source, targets = large_m_tables()
    cfg = SynthesisConfig(
        source_data="x", schema="x", method=method, output_size=50, seed=2,
        external_command=(sys.executable, str(GENERATOR)),
    )
    call = lambda: generate_table(source, targets, cfg, 2)[0].codes
    codes = call()
    assert codes.dtype == np.uint16 and codes[:, 0].max() > 255
    assert (patched(monkeypatch, block, call) == codes).all()


def target_rows(n, seed):
    """n random rows over the target's schema."""
    dims = TARGET.schema.dims
    codes = np.random.default_rng(seed).integers(0, dims, (n, len(dims)))
    return MicroTable(TARGET.schema, codes)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "span, dtype",
    [(1, np.uint8), (5, np.uint8), (256, np.uint8), (300, np.uint16),
     (70_000, np.uint32), (70_000, np.int64)],
)
def test_count_keys_equals_bincount(monkeypatch, block, span, dtype):
    for n in row_counts(block):
        keys = np.random.default_rng(n).integers(0, span, n).astype(dtype)
        counts = patched(monkeypatch, block, lambda: dataset.count_keys(keys, span))
        expected = np.bincount(keys, minlength=span)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)


@pytest.mark.parametrize("block", BLOCKS)
def test_distinct_combos_masks_equal_bincount(monkeypatch, block):
    """The source is passed twice and keyed once; the masks over the kept
    columns equal each table's np.bincount over the joint keys, > 0."""
    syn = target_rows(2 * block + 3, seed=block)
    tables = (SOURCE, TARGET, syn, SOURCE)
    kept = (0, 2, 3)
    masks = patched(monkeypatch, block, lambda: metrics.distinct_combos(tables, kept))
    codes = np.concatenate([t.codes for t in tables[:3]])
    ((_, keys, span),) = dataset.set_keys(
        [kept], TARGET.schema.dims, lambda c: codes[:, c], len(codes)
    )
    parts = np.split(keys, np.cumsum([t.n_rows for t in tables[:2]]))
    expected = [np.bincount(k, minlength=span) > 0 for k in parts + parts[:1]]
    assert len(masks) == len(expected)
    for mask, want in zip(masks, expected):
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, want)


@pytest.mark.parametrize("block", BLOCKS)
def test_evaluate_report_does_not_depend_on_the_block(monkeypatch, block):
    syn = target_rows(500, seed=block)
    call = lambda: repr(evaluate(TARGET, SOURCE, syn, population=TARGET))
    assert patched(monkeypatch, block, call) == call()
