"""SRMSE, zeros, precision/recall, and the report bundle."""

import csv
import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulasynth import MicroTable, SynthesisError, dataset, evaluate, metrics
from copulasynth import srmse_projected
from copulasynth.dataset import KEY_RANGE_PER_ROW, set_keys
from copulasynth.metrics import (
    EvaluationReport,
    default_exclusion,
    distinct_combos,
    marginal_report,
    precision_recall_f1,
    report_to_json,
    sampled_zeros,
    structural_zeros,
    write_marginal_csv,
)
from copulasynth.pipeline import make_transfer_benchmark
from conftest import make_schema, random_table, small_tables, subset_srmse, table_pairs


def table_from_rows(dims, rows):
    return MicroTable(make_schema(dims), np.array(rows, dtype=np.int64))


def srmse_oracle(ref, syn, subset):
    """Full enumeration over the subset's category product."""
    dims = [ref.schema.dims[i] for i in subset]
    ref_counts = Counter(map(tuple, ref.codes[:, subset].tolist()))
    syn_counts = Counter(map(tuple, syn.codes[:, subset].tolist()))
    total = 0.0
    for combo in itertools.product(*(range(m) for m in dims)):
        p = ref_counts.get(combo, 0) / ref.n_rows
        q = syn_counts.get(combo, 0) / syn.n_rows
        total += (p - q) ** 2
    return math.sqrt(math.prod(dims) * total)


def srmse_in_lexicographic_order(ref, syn, subset):
    """Sums the squares over the observed combinations in sorted order."""
    ref_counts = Counter(map(tuple, ref.codes[:, subset].tolist()))
    syn_counts = Counter(map(tuple, syn.codes[:, subset].tolist()))
    combos = sorted(set(ref_counts) | set(syn_counts))
    p = np.array([ref_counts[c] for c in combos]) / ref.n_rows
    q = np.array([syn_counts[c] for c in combos]) / syn.n_rows
    m_product = math.prod(ref.schema.dims[i] for i in subset)
    return math.sqrt(m_product * float(((p - q) ** 2).sum()))


def test_srmse_hand_cases():
    ref = table_from_rows([2], [[0]] * 5 + [[1]] * 5)
    syn = table_from_rows([2], [[0]] * 6 + [[1]] * 4)
    assert subset_srmse(ref, syn, [0]) == pytest.approx(0.2, abs=1e-12)
    disjoint_ref = table_from_rows([2], [[0]] * 4)
    disjoint_syn = table_from_rows([2], [[1]] * 4)
    assert subset_srmse(disjoint_ref, disjoint_syn, [0]) == 2.0
    assert subset_srmse(ref, ref, [0]) == 0.0


def test_srmse_validation():
    ref = random_table([2, 2], 10, seed=0)
    syn = random_table([2, 2], 10, seed=1)
    other = random_table([2, 3], 10, seed=2)
    with pytest.raises(SynthesisError, match="different schemas"):
        srmse_projected(ref, other, 1)
    with pytest.raises(SynthesisError):
        srmse_projected(ref, syn, 0)
    with pytest.raises(SynthesisError):
        srmse_projected(ref, syn, 3)


def test_srmse_matches_bruteforce_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        schema = make_schema(dims)
        n_ref = int(rng.integers(5, 200))
        n_syn = int(rng.integers(5, 200))
        ref = MicroTable(
            schema, np.column_stack([rng.integers(0, m, n_ref) for m in dims])
        )
        syn = MicroTable(
            schema, np.column_stack([rng.integers(0, m, n_syn) for m in dims])
        )
        size = int(rng.integers(1, d + 1))
        subset = sorted(rng.choice(d, size=size, replace=False).tolist())
        assert subset_srmse(ref, syn, subset) == pytest.approx(
            srmse_oracle(ref, syn, subset), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(table_pairs())
def test_srmse_symmetric_and_nonnegative(pair):
    ref, syn = pair
    subset = list(range(ref.schema.d))
    a = subset_srmse(ref, syn, subset)
    b = subset_srmse(syn, ref, subset)
    assert a == pytest.approx(b, abs=1e-12)
    assert a >= 0.0


@settings(max_examples=40, deadline=None)
@given(table_pairs(), st.integers(0, 10**6))
def test_srmse_invariant_under_shared_recoding(pair, seed):
    ref, syn = pair
    rng = np.random.default_rng(seed)
    schema = ref.schema
    perms = [rng.permutation(m) for m in schema.dims]
    recode = lambda t: MicroTable(
        schema,
        np.column_stack([perms[i][t.column(i)] for i in range(schema.d)]),
    )
    subset = list(range(schema.d))
    before = subset_srmse(ref, syn, subset)
    after = subset_srmse(recode(ref), recode(syn), subset)
    assert before == pytest.approx(after, abs=1e-12)


def test_srmse_projected_aggregates_by_mean():
    ref = random_table([2, 2, 2], 40, seed=3)
    syn = random_table([2, 2, 2], 40, seed=4)
    pairwise = [
        subset_srmse(ref, syn, s) for s in itertools.combinations(range(3), 2)
    ]
    assert srmse_projected(ref, syn, 2) == pytest.approx(np.mean(pairwise), abs=1e-12)
    # single subset of full size: projection equals the plain metric
    two = random_table([2, 3], 30, seed=5)
    two_syn = random_table([2, 3], 30, seed=6)
    assert srmse_projected(two, two_syn, 2) == subset_srmse(two, two_syn, [0, 1])


def srmse_by_key(ref, syn, subset):
    """SRMSE of one subset, counted on its own keys, the tables keyed end to end."""
    codes = np.concatenate((ref.codes, syn.codes))
    ((_, keys, span),) = set_keys(
        [subset], ref.schema.dims, lambda c: codes[:, c], len(codes)
    )
    a, b = (np.bincount(k, minlength=span) for k in np.split(keys, [ref.n_rows]))
    seen = (a + b) > 0
    p, q = a[seen] / ref.n_rows, b[seen] / syn.n_rows
    m_product = math.prod(ref.schema.dims[c] for c in subset)
    return math.sqrt(m_product * float(((p - q) ** 2).sum()))


def srmse_by_keys(ref, syn, n):
    """Mean SRMSE over the size-n subsets, each counted on its own keys."""
    subsets = itertools.combinations(range(ref.schema.d), n)
    return float(np.mean([srmse_by_key(ref, syn, s) for s in subsets]))


@st.composite
def walk_cases(draw):
    """Two tables and a set of projection sizes for srmse_by_size.

    Up to 300 rows let blocks span several small columns; a 300-category
    column makes its pairs pass the dense limit, so they are counted over
    re-ranked keys and their children become roots.
    """
    d = draw(st.integers(1, 7))
    dims = [draw(st.sampled_from([2, 2, 3, 4, 5, 300])) for _ in range(d)]
    sizes = draw(st.lists(st.integers(1, min(d, 5)), min_size=1, max_size=5, unique=True))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    skew = draw(st.sampled_from([1.0, 3.0]))  # 3.0 crowds rows onto low codes
    schema = make_schema(dims)
    ref, syn = (
        MicroTable(schema, np.column_stack(
            [(rng.random(n) ** skew * m).astype(np.int64) for m in dims]
        ))
        for n in (draw(st.integers(1, 300)), draw(st.integers(1, 300)))
    )
    return ref, syn, tuple(sizes)


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_srmse_by_size_matches_per_subset_keys(case):
    ref, syn, sizes = case
    with mock.patch.object(metrics, "srmse", wraps=metrics.srmse) as scored:
        got = metrics.srmse_by_size(ref, syn, sizes)
    assert list(got) == list(sizes)
    for n in sizes:
        assert got[n] == srmse_by_keys(ref, syn, n), n
    # One srmse call per subset of each requested size, and none for the
    # sizes the walk only passes through.
    dims = ref.schema.dims
    assert Counter(call.args[1] for call in scored.call_args_list) == Counter(
        math.prod(dims[c] for c in subset)
        for n in sizes
        for subset in itertools.combinations(range(len(dims)), n)
    )


@settings(max_examples=40, deadline=None)
@given(walk_cases())
def test_block_budget_cannot_change_a_score(case):
    """Blocks of one cell per 1, 4, 8, 16 or 64 counted rows cover the
    subsets differently, so each budget cuts them out of other blocks by
    other axis sums; every subset's score is the same to the last bit."""
    ref, syn, sizes = case
    results, srmse = [], metrics.srmse
    budgets = (1, 4, 8, 16, 64)
    for rows_per_cell in budgets:
        scores = []

        def scored(squares, m_product):
            scores.append((m_product, srmse(squares, m_product)))
            return scores[-1][1]

        with mock.patch.object(metrics, "_ROWS_PER_BLOCK_CELL", rows_per_cell):
            with mock.patch.object(metrics, "srmse", scored):
                got = metrics.srmse_by_size(ref, syn, sizes)
        results.append((
            [v.hex() for v in got.values()],
            sorted((m_product, v.hex()) for m_product, v in scores),
        ))
    for rows_per_cell, result in zip(budgets[1:], results[1:]):
        assert result == results[0], rows_per_cell


def test_srmse_by_size_rejects_bad_sizes():
    ref, syn = random_table([2, 3], 10, seed=1), random_table([2, 3], 12, seed=2)
    with pytest.raises(SynthesisError, match="outside 1..2"):
        metrics.srmse_by_size(ref, syn, (1, 3))
    assert metrics.srmse_by_size(ref, syn, ()) == {}


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([2.5], "2.5 is not an integer"),
        ([2.0], "2.0 is not an integer"),
        (["2"], "'2' is not an integer"),
        ([None], "None is not an integer"),
        ([True], "True is not an integer"),
        ([np.True_], "is not an integer"),
        (3, "not a sequence"),
    ],
)
def test_srmse_by_size_rejects_non_integer_sizes(sizes, message):
    ref, syn = random_table([2, 3], 10, seed=1), random_table([2, 3], 12, seed=2)
    with pytest.raises(SynthesisError, match=message):
        metrics.srmse_by_size(ref, syn, sizes)


def test_srmse_by_size_returns_plain_int_keys():
    ref, syn = random_table([2, 3], 10, seed=1), random_table([2, 3], 12, seed=2)
    got = metrics.srmse_by_size(ref, syn, [np.int64(2), np.uint8(1)])
    assert [type(n) for n in got] == [int, int]
    assert got == metrics.srmse_by_size(ref, syn, [2, 1])


def test_srmse_by_size_shared_blocks_at_bench_shape():
    """d=14 over a few thousand rows, where _cover builds blocks wider than
    the largest subsets, as it does for evaluate on the benchmark's tables.
    A block of 7 columns is two wider than the subsets at top 5, so they
    remove a shared first column and the walk's trie of removed columns
    branches below it; at top 2 they remove five, so the trie is deep."""
    dims = [(2, 3, 4)[i % 3] for i in range(14)]
    schema = make_schema(dims)
    rng = np.random.default_rng(11)
    ref, syn = (
        MicroTable(schema, np.column_stack(
            [(rng.random(n) ** 3.0 * m).astype(np.int64) for m in dims]
        ))
        for n in (3000, 2500)
    )
    reversed_syn = MicroTable(schema, syn.codes[::-1])
    rows = ref.n_rows + syn.n_rows
    srmse = metrics.srmse
    for top in (5, 2):
        plan = metrics._cover(
            dims, top, rows // metrics._ROWS_PER_BLOCK_CELL, KEY_RANGE_PER_ROW * rows
        )
        assert max(len(block) for block, _ in plan) >= 7, top
        sizes, scores = range(1, top + 1), []

        def scored(squares, m_product):
            scores.append(srmse(squares, m_product))
            return scores[-1]

        with mock.patch.object(metrics, "srmse", scored):
            got = metrics.srmse_by_size(ref, syn, sizes)
            forward = scores[:]
            assert metrics.srmse_by_size(ref, reversed_syn, sizes) == got
        for n in sizes:
            assert got[n] == srmse_by_keys(ref, syn, n), n
        # Means can hide a last-bit difference: compare every subset's score.
        assert sorted(forward) == sorted(
            srmse_by_key(ref, syn, s)
            for n in sizes
            for s in itertools.combinations(range(14), n)
        )
        assert scores[len(forward) :] == forward


def test_srmse_by_size_work_at_ipf_d14_shape():
    """The walk's work at the ipf_d14 benchmark's shape (d=14, 10k reference
    and 10k synthetic rows, sizes 1..5): its axis sums, its scored subsets,
    its blocks, the key extensions that key them and its scoring passes.
    The plan depends on the dims and row counts only. A change to this
    work re-pins these counts and says why."""
    source, target = make_transfer_benchmark(
        seed=0, d=14, n_source=10_000, n_target=10_000
    )
    cover, plans = metrics._cover, []

    def planned(*args):
        plans.append(cover(*args))
        return plans[-1]

    with (
        mock.patch.object(metrics, "_sum_out", wraps=metrics._sum_out) as sums,
        mock.patch.object(metrics, "srmse", wraps=metrics.srmse) as scored,
        mock.patch.object(
            metrics, "_score_block", wraps=metrics._score_block
        ) as passes,
        mock.patch.object(dataset, "_extend_keys", wraps=dataset._extend_keys) as keyed,
        mock.patch.object(metrics, "_cover", planned),
    ):
        metrics.srmse_by_size(target, source, range(1, 6))
    assert sums.call_count == 4702
    assert scored.call_count == 3472
    assert [len(plan) for plan in plans] == [94]
    assert keyed.call_count == 451
    assert passes.call_count == 94


@st.composite
def count_tables(draw):
    """An integer table of 1 to 32 axes, most of them of size 1."""
    ndim = draw(st.integers(1, 32))
    wide = draw(st.sets(st.integers(0, ndim - 1), max_size=6))
    shape = tuple(draw(st.integers(2, 4)) if i in wide else 1 for i in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return rng.integers(0, 1000, size=shape)


@settings(max_examples=100, deadline=None)
@given(count_tables())
def test_sum_out_equals_add_reduce_on_every_axis(table):
    for axis in range(table.ndim):
        summed = metrics._sum_out(table, axis)
        expected = np.add.reduce(table, axis)
        assert summed.dtype == expected.dtype and summed.shape == expected.shape
        assert np.array_equal(summed, expected), axis


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([1, 1, 2, 3, 4, 5, 300]), min_size=1, max_size=12),
    st.integers(1, 5),
    st.integers(1, 400),
)
def test_cover_lists_each_blocks_removals_in_lexicographic_order(dims, top, rows):
    """_cover gives each block the columns its first-held subsets remove,
    in the lexicographic order of itertools.combinations, so _trie nests
    them as they come and its keys ascend. The test pins the plan: blocks
    in ascending order, each of ascending columns within the width cap;
    each removal a combination of its block whose complement is a
    top-size subset; every top-size subset held exactly once."""
    top = min(top, len(dims))
    plan = metrics._cover(
        dims, top, rows // metrics._ROWS_PER_BLOCK_CELL, KEY_RANGE_PER_ROW * rows
    )
    assert [block for block, _ in plan] == sorted(block for block, _ in plan)
    held = []
    for block, removals in plan:
        assert list(block) == sorted(set(block))
        assert len(block) <= metrics._MAX_BLOCK_COLUMNS
        assert removals and removals == sorted(set(removals))
        assert set(removals) <= set(itertools.combinations(block, len(block) - top))
        held += [tuple(c for c in block if c not in removed) for removed in removals]
    assert sorted(held) == list(itertools.combinations(range(len(dims)), top))


@pytest.mark.parametrize(
    "d, wide, sizes", [(64, 2, (1, 2)), (70, 5, (1, 2)), (34, 3, (33, 34))]
)
def test_srmse_by_size_past_numpy_dimension_limit(d, wide, sizes):
    """One-category columns join a block for free, so a block could take
    every column of a wide schema; its table would pass numpy's axis limit
    (32 on numpy 1.x, 64 on 2.x). Blocks stop at 31 columns, and a subset
    wider than that is counted over its keys."""
    rng = np.random.default_rng(d)
    dims = [1] * d
    for c in rng.choice(d, wide, replace=False):
        dims[c] = int(rng.integers(2, 5))
    schema = make_schema(dims)
    ref, syn = (
        MicroTable(schema, np.column_stack([rng.integers(0, m, n) for m in dims]))
        for n in (50, 70)
    )
    rows = ref.n_rows + syn.n_rows
    plan = metrics._cover(
        dims, max(sizes), rows // metrics._ROWS_PER_BLOCK_CELL, KEY_RANGE_PER_ROW * rows
    )
    widths = [len(block) for block, _ in plan]
    assert max(widths) == max(max(sizes), metrics._MAX_BLOCK_COLUMNS)
    got = metrics.srmse_by_size(ref, syn, sizes)
    for n in sizes:
        assert got[n] == srmse_by_keys(ref, syn, n), n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(0, 300), st.integers(0, 2**31 - 1))
def test_reduce_over_a_slice_sums_as_a_copy(length, offset, seed):
    """srmse sums a slice of a larger contiguous float64 array; the batched
    scores are bit-identical only if that adds the terms as a fresh copy's
    sum does."""
    values = np.random.default_rng(seed).random(offset + length + 7) ** 2
    part = values[offset : offset + length]
    assert float(np.add.reduce(part)) == float(part.copy().sum()), (
        f"numpy {np.__version__} sums a {length}-element slice at offset "
        f"{offset} differently from a copy of it"
    )


def test_default_exclusion_targets_wide_ordinals():
    from copulasynth import Schema, VariableSpec

    schema = Schema(
        (
            VariableSpec("age", tuple(str(i) for i in range(85)), "ordinal"),
            VariableSpec("sex", ("F", "M"), "categorical"),
            VariableSpec("wide_cat", tuple(str(i) for i in range(30)), "categorical"),
        )
    )
    assert default_exclusion(schema) == ("age",)


def test_sampled_zeros_set_arithmetic():
    dims = [3, 3]
    train = table_from_rows(dims, [[0, 0]])
    ref = table_from_rows(dims, [[0, 0], [1, 1]])
    syn = table_from_rows(dims, [[1, 1], [2, 2]])
    assert evaluate(ref, train, syn, exclude=()).sampled_zeros == 1  # only (1,1)
    assert evaluate(ref, train, train, exclude=()).sampled_zeros == 0
    with pytest.raises(SynthesisError, match="empty projection"):
        evaluate(ref, train, syn, exclude=("v0", "v1"))


def test_structural_zeros_set_arithmetic():
    dims = [4, 4]
    pop = table_from_rows(dims, [[0, 0], [1, 1], [2, 2]])
    syn = table_from_rows(dims, [[1, 1], [2, 2], [3, 3]])
    assert evaluate(pop, pop, syn, pop, exclude=()).structural_zeros == 1
    assert evaluate(pop, pop, pop, pop, exclude=()).structural_zeros == 0


def test_precision_recall_f1_hand_case():
    dims = [4, 4]
    pop = table_from_rows(dims, [[0, 0], [1, 1], [2, 2]])
    syn = table_from_rows(dims, [[1, 1], [2, 2], [3, 3]])
    report = evaluate(pop, pop, syn, pop, exclude=())
    assert report.precision == 2 / 3 and report.recall == 2 / 3
    assert report.f1 == pytest.approx(2 / 3, abs=1e-15)
    report = evaluate(pop, pop, pop, pop, exclude=())
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_precision_recall_f1_rejects_empty_masks():
    seen = np.array([True, False])
    empty = np.zeros(2, dtype=bool)
    with pytest.raises(SynthesisError, match="synthetic table is empty"):
        precision_recall_f1(empty, seen)
    with pytest.raises(SynthesisError, match="population table is empty"):
        precision_recall_f1(seen, empty)


def test_precision_zero_when_disjoint():
    dims = [2, 2]
    pop = table_from_rows(dims, [[0, 0]])
    syn = table_from_rows(dims, [[1, 1]])
    report = evaluate(pop, pop, syn, pop, exclude=())
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_zeros_match_bruteforce_sets():
    rng = np.random.default_rng(77)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(d)]
        tables = [random_table(dims, int(rng.integers(4, 60)), seed=int(rng.integers(1e6)))
                  for _ in range(3)]
        train, ref, syn = tables
        as_set = lambda t: set(map(tuple, t.codes.tolist()))
        report = evaluate(ref, train, syn, ref, exclude=())
        assert report.sampled_zeros == len(
            as_set(syn) & as_set(ref) - as_set(train)
        )
        assert report.structural_zeros == len(as_set(syn) - as_set(ref))
        hit = len(as_set(syn) & as_set(ref))
        assert report.precision == hit / len(as_set(syn))
        assert report.recall == hit / len(as_set(ref))


def test_exclusion_projects_before_counting():
    dims = [2, 2]
    train = table_from_rows(dims, [[0, 0]])
    ref = table_from_rows(dims, [[0, 1]])
    syn = table_from_rows(dims, [[0, 1]])
    # with the second variable excluded, everything collapses onto v0=0
    assert evaluate(ref, train, syn, exclude=()).sampled_zeros == 1
    assert evaluate(ref, train, syn, exclude=("v1",)).sampled_zeros == 0
    with pytest.raises(SynthesisError, match="unknown"):
        evaluate(ref, train, syn, exclude=("ghost",))


def test_evaluate_checks_exclusion_before_scoring(monkeypatch):
    def scored(*args):
        raise AssertionError("SRMSE ran before the exclusion list was checked")

    monkeypatch.setattr(metrics, "srmse_by_size", scored)
    table = random_table([2, 3], 20, seed=1)
    with pytest.raises(SynthesisError, match="unknown excluded variable"):
        evaluate(table, table, table, exclude=("nope",))


def test_marginal_report_hand_counts():
    dims = [2]
    ref = table_from_rows(dims, [[0], [0], [1]])
    train = table_from_rows(dims, [[1], [1], [1]])
    syn = table_from_rows(dims, [[0], [1], [1]])
    series = marginal_report(ref, train, syn)
    assert len(series) == 1
    s = series[0]
    assert s.reference == (2 / 3, 1 / 3)
    assert s.training == (0.0, 1.0)
    assert s.synthetic == (1 / 3, 2 / 3)
    identical = marginal_report(ref, train, ref)
    assert identical[0].reference == identical[0].synthetic


@settings(max_examples=30, deadline=None)
@given(small_tables())
def test_marginal_report_series_sum_to_one(table):
    series = marginal_report(table, table, table)
    for s in series:
        assert math.fsum(s.reference) == pytest.approx(1.0, abs=1e-9)


def test_marginal_csv_format(tmp_path):
    ref = table_from_rows([2], [[0], [1]])
    series = marginal_report(ref, ref, ref)
    path = tmp_path / "m.csv"
    write_marginal_csv(series, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variable", "category", "series", "frequency"]
    assert ["v0", "0", "reference", repr(0.5)] in rows


def test_report_f1_invariant():
    series = ()
    with pytest.raises(SynthesisError):
        EvaluationReport(
            srmse_by_n={1: 0.0},
            sampled_zeros=0,
            structural_zeros=0,
            precision=0.5,
            recall=0.5,
            f1=0.9,
            marginal_series=series,
        )
    with pytest.raises(SynthesisError):
        EvaluationReport(
            srmse_by_n={1: 0.0},
            sampled_zeros=0,
            structural_zeros=0,
            precision=0.0,
            recall=0.5,
            f1=0.3,
            marginal_series=series,
        )


def test_evaluate_and_json_field_names():
    ref = random_table([2, 3], 50, seed=1)
    syn = random_table([2, 3], 50, seed=2)
    report = evaluate(ref, ref, syn, ref, exclude=())
    doc = report_to_json(report)
    assert set(doc) == {
        "srmse_by_n",
        "sampled_zeros",
        "structural_zeros",
        "precision",
        "recall",
        "f1",
        "marginal_series",
        "warnings",
    }
    assert set(doc["srmse_by_n"]) == {"1", "2"}
    assert doc["marginal_series"][0]["variable"] == "v0"
    # syn == ref combos minus train combos is empty when train == ref
    assert doc["sampled_zeros"] == 0


def test_srmse_past_the_bincount_budget_matches_oracle():
    # Pairs of 300-category variables span 90,000 keys over 130 rows, so the
    # keys are re-ranked before counting; the small variables re-rank again.
    rng = np.random.default_rng(31)
    dims = [300, 300, 300, 300, 300, 3, 4]
    schema = make_schema(dims)
    draw = lambda n: MicroTable(
        schema, np.column_stack([rng.integers(0, m, n) for m in dims])
    )
    ref, syn = draw(50), draw(80)
    syn = MicroTable(schema, np.vstack([syn.codes, ref.codes[:20]]))
    for n in (1, 2):
        expected = np.mean(
            [srmse_oracle(ref, syn, list(s))
             for s in itertools.combinations(range(len(dims)), n)]
        )
        assert srmse_projected(ref, syn, n) == pytest.approx(expected, abs=1e-12)
    for subset in ([3, 1], [0, 5, 6], [6, 2, 5]):
        assert subset_srmse(ref, syn, subset) == pytest.approx(
            srmse_oracle(ref, syn, subset), abs=1e-12
        )
    # Re-ranking keeps the key order, so the float sum is the sorted one, bit
    # for bit, and projected means are unchanged by the budget.
    pairs = list(itertools.combinations(range(len(dims)), 2))
    exact = [srmse_in_lexicographic_order(ref, syn, list(s)) for s in pairs]
    assert [subset_srmse(ref, syn, s) for s in pairs] == exact
    assert srmse_projected(ref, syn, 2) == float(np.mean(exact))


def test_zeros_past_int64_match_bruteforce_sets():
    # 700**7 > 2**63: the joint key of all seven variables only fits re-ranked.
    rng = np.random.default_rng(5)
    dims = [700] * 7
    schema = make_schema(dims)
    pool = np.column_stack([rng.integers(0, m, 40) for m in dims])
    pool[:, 0] = 699
    draw = lambda n: MicroTable(schema, pool[rng.integers(0, len(pool), n)])
    as_set = lambda t, kept: set(map(tuple, t.codes[:, kept].tolist()))
    for _ in range(5):
        train, ref, syn = draw(30), draw(30), draw(50)
        for kept in (list(range(7)), [0, 1, 2, 4, 5, 6]):
            t, r, s = (as_set(x, kept) for x in (train, ref, syn))
            masks = distinct_combos((train, ref, syn), kept)
            assert [np.count_nonzero(m) for m in masks] == [len(t), len(r), len(s)]
            t_seen, r_seen, s_seen = masks
            assert sampled_zeros(t_seen, r_seen, s_seen) == len(s & r - t)
            assert structural_zeros(s_seen, r_seen) == len(s - r)
            p, rec, _ = precision_recall_f1(s_seen, r_seen)
            assert (p, rec) == (len(s & r) / len(s), len(s & r) / len(r))


def test_evaluate_population_is_source_matches_set_oracle():
    dims = [3, 4, 2, 25]
    kinds = ["categorical", "ordinal", "categorical", "ordinal"]
    train, ref, syn = (random_table(dims, n, seed=s, kinds=kinds)
                       for n, s in ((60, 1), (40, 2), (90, 3)))
    report = evaluate(ref, train, syn, train)
    kept = [0, 1, 2]  # v3 is a wide ordinal, excluded by default
    as_set = lambda t: set(map(tuple, t.codes[:, kept].tolist()))
    t, r, s = as_set(train), as_set(ref), as_set(syn)
    assert report.sampled_zeros == len(s & r - t)
    assert report.structural_zeros == len(s - t)
    assert report.precision == len(s & t) / len(s)
    assert report.recall == len(s & t) / len(t)
    assert report.srmse_by_n[2] == srmse_projected(ref, syn, 2)
    # Without a population, train and ref together stand for it.
    report = evaluate(ref, train, syn)
    assert report.sampled_zeros == len(s & r - t)
    assert report.structural_zeros == len(s - (t | r))
    assert report.precision == len(s & (t | r)) / len(s)
    assert report.recall == len(s & (t | r)) / len(t | r)
