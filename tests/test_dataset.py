"""Schema, table, and CSV ingestion behavior."""

import csv
import io
import math
import os
import threading
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from copulasynth import (
    MarginalTable,
    MicroTable,
    Schema,
    SynthesisConfig,
    SynthesisError,
    VariableSpec,
    allocate,
    build_seed,
    generate_table,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    make_transfer_benchmark,
    marginals_of,
    sample_bayesnet,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth import dataset
from copulasynth.bayesnet import BayesNet, Dag
from copulasynth.dataset import (
    _CSV_BLOCK_BYTES,
    _CSV_BLOCK_ROWS,
    _CSV_READ_BYTES,
    _label_table,
    _load_micro_bytes,
    _load_micro_rows,
    code_dtype,
    set_keys,
)
from copulasynth.ipf import ContingencyTable
from copulasynth.pipeline import rank_recode
from conftest import make_schema, random_table, small_tables


def test_variable_spec_rejects_duplicates_and_empty():
    with pytest.raises(SynthesisError):
        VariableSpec("a", ("x", "x"))
    with pytest.raises(SynthesisError):
        VariableSpec("a", ())
    with pytest.raises(SynthesisError):
        VariableSpec("a", ("x",), kind="continuous")


def test_variable_spec_codes():
    v = VariableSpec("edu", ("low", "mid", "high"), "ordinal")
    assert v.n_categories == 3
    assert v.code_of("mid") == 1
    with pytest.raises(SynthesisError):
        v.code_of("phd")


def test_schema_validation():
    v = VariableSpec("a", ("x", "y"))
    with pytest.raises(SynthesisError):
        Schema(())
    with pytest.raises(SynthesisError):
        Schema((v, v))
    s = make_schema([2, 3])
    assert s.d == 2 and s.dims == (2, 3)
    assert s.index_of("v1") == 1
    with pytest.raises(SynthesisError):
        s.index_of("nope")


def test_micro_table_validates_codes():
    schema = make_schema([2, 3])
    with pytest.raises(SynthesisError):
        MicroTable(schema, np.array([[0, 3]]))  # code 3 out of range for m=3
    with pytest.raises(SynthesisError):
        MicroTable(schema, np.array([[0, -1]]))
    with pytest.raises(SynthesisError):
        MicroTable(schema, np.array([0, 1]))  # wrong rank
    # A code that is not stored as an integer is rejected, never truncated.
    for bad in ([[0.7, 2.9]], np.array([[True, False]]), [[np.nan, 0]],
                [[None, 0]], [[1e30, 0]], [[10**30, 0]]):
        with pytest.raises(SynthesisError, match="codes must be integers"):
            MicroTable(schema, bad)
    err = None
    try:
        MicroTable(schema, np.array([[0, 5]]))
    except SynthesisError as exc:
        err = str(exc)
    assert "v1" in err


def test_micro_table_copies_and_freezes():
    schema = make_schema([2])
    src = np.array([[0], [1]])
    table = MicroTable(schema, src)
    src[0, 0] = 1
    assert table.codes[0, 0] == 0
    with pytest.raises(ValueError):
        table.codes[0, 0] = 1


def test_micro_table_stores_codes_column_by_column(tmp_path):
    """Every producer's table reads each variable as one contiguous column."""
    source, target = make_transfer_benchmark(seed=2, d=4, n_source=300, n_target=300)
    write_micro_csv(source, tmp_path / "source.csv")
    tables = [
        source,
        target,
        load_micro_csv(tmp_path / "source.csv", source.schema),
        rank_recode(source)[0],
        build_seed(source).cells,
    ]
    for method in ("independent", "ipf", "bn", "bn_copula"):
        cfg = SynthesisConfig(
            source_data="x", schema="x", method=method, output_size=200, seed=1
        )
        tables.append(generate_table(source, marginals_of(target), cfg, 1)[0])
    for table in tables:
        assert table.codes.shape == (table.n_rows, table.schema.d)
        assert table.codes.dtype == code_dtype(table.schema)
        assert not table.codes.flags.writeable
        for i in range(table.schema.d):
            assert table.column(i).flags.c_contiguous
    # An input already in the table's layout is still copied, not aliased.
    src = np.asfortranarray(np.array([[0, 1], [1, 0]], dtype=np.int64))
    table = MicroTable(make_schema([2, 2]), src)
    src[0, 0] = 1
    assert table.codes[0, 0] == 0


def test_micro_table_checks_codes_before_narrowing():
    """An out-of-range int64 code is rejected as given, not wrapped into range."""
    schema = make_schema([256, 2])
    assert code_dtype(schema) == np.uint8
    with pytest.raises(SynthesisError, match=r"'v0': code 256 out of range \(m=256\)"):
        MicroTable(schema, np.array([[256, 0]], dtype=np.int64))
    with pytest.raises(SynthesisError, match="negative category code"):
        MicroTable(schema, np.array([[-1, 0]], dtype=np.int64))
    # An input already in the table's dtype and layout is still copied.
    src = np.asfortranarray(np.array([[255, 1]], dtype=np.uint8))
    table = MicroTable(schema, src)
    src[0, 0] = 0
    assert table.codes[0, 0] == 255


@pytest.mark.parametrize("m, dtype", [(256, np.uint8), (257, np.uint16)])
def test_every_producer_keeps_code_m_minus_1(tmp_path, m, dtype):
    """At the uint8/uint16 boundary, code m - 1 survives each producer's store."""
    schema = make_schema([m, 2])
    assert code_dtype(schema) == dtype
    full = MicroTable(schema, np.column_stack([np.arange(m), np.arange(m) % 2]))
    last = np.zeros(m, dtype=np.int64)
    last[-1] = 1
    # Node 0 is always m - 1, and node 1 is m - 1 under that parent code.
    bn = BayesNet(
        schema=make_schema([m, m]),
        dag=Dag(parents=((), (0,))),
        cpts=(last[None, :].astype(float), np.vstack([np.full((m - 1, m), 1 / m), last])),
    )
    only_last = MicroTable(schema, [[m - 1, 1]])
    write_micro_csv(only_last, tmp_path / "last.csv")
    tables = [
        sample_bayesnet(bn, 5, np.random.default_rng(0)),
        rank_recode(full)[0],
        load_micro_csv(tmp_path / "last.csv", schema),
        allocate(ContingencyTable(only_last, [1.0]), 5, np.random.default_rng(0)),
    ]
    targets = MarginalTable(schema, (last, np.array([1, 1])))
    for method in ("independent_copula", "bn_copula"):
        cfg = SynthesisConfig(
            source_data="x", schema="x", method=method, output_size=50, seed=1
        )
        tables.append(generate_table(full, targets, cfg, 1)[0])
    assert (tables[0].codes == m - 1).all()
    for table in tables:
        assert table.codes.dtype == dtype
        assert table.column(0).max() == m - 1


def lexicographic_ranks(*tables):
    """Each row's rank among the distinct rows of all the tables together."""
    rows = [tuple(r) for t in tables for r in t.codes.tolist()]
    rank = {row: i for i, row in enumerate(sorted(set(rows)))}
    return [rank[row] for row in rows]


def end_to_end_keys(tables, dims, columns, budget=None):
    """Each table's set_keys keys over the columns, the tables keyed end to end."""
    codes = np.concatenate([t.codes for t in tables])
    ((_, keys, span),) = set_keys(
        [columns], dims, lambda c: codes[:, c], len(codes), budget
    )
    return np.split(keys, np.cumsum([t.n_rows for t in tables[:-1]])), span


@pytest.mark.parametrize("columns", [(0, 1, 2, 3), (2, 0), (3,), ()])
def test_combo_keys_without_rerank_equal_ravel_multi_index(columns):
    """With a budget of the full product set_keys re-ranks nothing, so the keys
    are the mixed-radix indices that BN sampling and CPT fitting index with."""
    table = random_table([3, 5, 2, 7], 200, seed=4)
    dims = [table.schema.dims[c] for c in columns]
    ((_, key, span),) = set_keys(
        [columns], table.schema.dims, table.column, table.n_rows, math.prod(dims)
    )
    assert key.dtype == np.uint8  # every range here is at most 3 * 5 * 2 * 7
    assert span == math.prod(dims)
    expected = np.ravel_multi_index(table.codes[:, columns].T, dims) if columns else 0
    np.testing.assert_array_equal(key, expected)


@pytest.mark.parametrize("seed", range(5))
def test_combo_keys_after_rerank_align_and_keep_lexicographic_order(seed):
    """Re-ranked keys of two tables keyed end to end still compare across
    both tables like the rows do."""
    dims = [4, 6, 5, 3]
    a = random_table(dims, 30, seed=seed)
    b = random_table(dims, 20, seed=seed + 100)
    budget = 2 * (a.n_rows + b.n_rows)  # 100, passed at the third column
    keys, span = end_to_end_keys((a, b), dims, range(4), budget)
    assert span < math.prod(dims)  # at least one re-rank happened
    assert span <= budget * dims[-1]
    assert all(k.dtype == np.uint8 for k in keys)  # re-ranked keys narrow too
    joint = np.concatenate(keys)
    assert joint.min() >= 0 and joint.max() < span
    _, ranks = np.unique(joint, return_inverse=True)
    assert ranks.tolist() == lexicographic_ranks(a, b)


def test_combo_keys_on_uint8_codes_do_not_wrap():
    """Eight 256-category columns span 2**64 combinations: uint8 codes key
    without wrapping, and re-ranking keeps the range near the row count."""
    rng = np.random.default_rng(9)
    pool = rng.integers(0, 256, (300, 8))
    # Rows sharing all but their last code would collide first if keys wrapped.
    pool[150:, :7] = pool[:150, :7]
    table = MicroTable(make_schema([256] * 8), pool[rng.integers(0, 300, 500)])
    assert table.codes.dtype == np.uint8
    ((_, key, span),) = set_keys(
        [range(8)], table.schema.dims, table.column, table.n_rows
    )
    budget = 4 * table.n_rows  # the default, KEY_RANGE_PER_ROW per key
    assert np.unique(key).size == np.unique(table.codes, axis=0).shape[0]
    assert 0 <= key.min() and key.max() < span <= budget * 256
    _, ranks = np.unique(key, return_inverse=True)
    assert ranks.tolist() == lexicographic_ranks(table)


@pytest.mark.parametrize(
    "span, m, dtype",
    [
        (128, 2, np.uint8),  # span * m = 256
        (1, 256, np.uint8),  # a 256-category first column: 256 does not fit uint8
        (1, 257, np.uint16),
        (256, 256, np.uint16),  # 65,536
        (1, 65_537, np.uint32),
        (65_536, 65_536, np.uint32),  # 2**32
        (6_700_417, 641, np.int64),  # 2**32 + 1
    ],
)
def test_extend_keys_stores_the_narrowest_dtype_of_the_range(span, m, dtype):
    """Keys over a column of span categories, then one of m, take the
    narrowest of uint8/uint16/uint32 that holds span * m - 1, else int64,
    and equal the int64 mixed-radix key."""
    keys = np.array([0, span // 2, span - 1], dtype=np.min_scalar_type(span - 1))
    column = np.array([m - 1, 0, m - 1], dtype=np.min_scalar_type(m - 1))
    ((_, key, new_span),) = set_keys(
        [(0, 1)], (span, m), [keys, column].__getitem__, 3, budget=span * m
    )
    assert key.dtype == dtype
    assert new_span == span * m
    expected = keys.astype(np.int64) * m + column.astype(np.int64)
    np.testing.assert_array_equal(key, expected)


@st.composite
def keyed_tables(draw):
    """One or two tables of up to 4 columns of 2..300 categories, so codes
    cross uint8/uint16 and key ranges cross every key dtype, with an
    ordered subset of their columns to key."""
    d = draw(st.integers(1, 4))
    dims = [draw(st.integers(2, 300)) for _ in range(d)]
    tables = [
        random_table(dims, draw(st.integers(1, 60)), draw(st.integers(0, 2**31 - 1)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    columns = draw(st.permutations(range(d)))[: draw(st.integers(0, d))]
    return tables, tuple(columns)


@settings(max_examples=60, deadline=None)
@given(keyed_tables(), st.integers(1, 30))
def test_combo_keys_property(case, budget):
    """Unranked keys equal np.ravel_multi_index; with a budget small enough to
    force re-ranks, joint keys still follow the rows' lexicographic order."""
    tables, columns = case
    dims = tables[0].schema.dims
    sub_dims = [dims[c] for c in columns]
    keys, span = end_to_end_keys(tables, dims, columns, math.prod(sub_dims))
    assert span == math.prod(sub_dims)
    for key, t in zip(keys, tables):
        expected = (
            np.ravel_multi_index(t.codes[:, columns].T, sub_dims) if columns else 0
        )
        np.testing.assert_array_equal(key, expected)
    keys, span = end_to_end_keys(tables, dims, columns, budget)
    joint = np.concatenate(keys)
    assert joint.max() < span
    _, ranks = np.unique(joint, return_inverse=True)
    if columns:
        schema = make_schema(sub_dims)
        tables = [MicroTable(schema, t.codes[:, columns]) for t in tables]
        assert ranks.tolist() == lexicographic_ranks(*tables)
    else:
        assert not ranks.any()


CUTS = [-1.0, 0.0, 0.25, 1.0, 2.5]  # few values, so that rows repeat cuts


@st.composite
def cut_rows(draw):
    """(width, rows of ascending cuts): a leading -inf run, then finite cuts
    with repeats, then inf padding through at least the last cut."""
    width = 1 << draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):  # 5 rows of 64: keys * width > 255
        lead = draw(st.integers(0, width - 1))
        finite = draw(st.lists(st.sampled_from(CUTS), max_size=width - 1 - lead))
        pad = width - lead - len(finite)
        rows.append([-np.inf] * lead + sorted(finite) + [np.inf] * pad)
    return width, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(cut_rows())
def test_count_below_equals_searchsorted_per_row(case):
    """Every row's count of cuts below u is searchsorted(row, u, "left"),
    for u on and next to every cut of every row, over more than two blocks
    of the search, and for a 0-d u."""
    width, cuts = case
    on = np.unique(cuts)
    u = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
    k = 2 * dataset._SEARCH_BLOCK // u.size + 1
    rows = np.repeat(np.arange(len(cuts), dtype=np.uint8), u.size)
    tiled = np.tile(u, k * len(cuts))
    got = dataset.count_below(cuts.ravel(), width, tiled, np.tile(rows, k))
    want = np.concatenate([np.searchsorted(row, u, side="left") for row in cuts])
    assert got.dtype == want.dtype and np.array_equal(got, np.tile(want, k))
    want = np.searchsorted(cuts[0], u, side="left")
    got = dataset.count_below(cuts[0], width, np.tile(u, k).reshape(k, -1))
    assert got.shape == (k, u.size) and np.array_equal(got, np.tile(want, (k, 1)))
    for r, row in enumerate(cuts):
        x = np.asarray(u[r % u.size])
        want = np.searchsorted(row, x, side="left")
        for got in (
            dataset.count_below(cuts.ravel(), width, x, np.uint8(r)),
            dataset.count_below(row, width, x),
        ):
            assert type(got) is type(want) and got == want


def test_marginal_table_validation():
    schema = make_schema([2, 2])
    with pytest.raises(SynthesisError):
        MarginalTable(schema, (np.array([1, 2, 3]), np.array([1, 1])))
    with pytest.raises(SynthesisError):
        MarginalTable(schema, (np.array([1, -1]), np.array([1, 1])))
    with pytest.raises(SynthesisError):
        MarginalTable(schema, (np.array([0, 0]), np.array([1, 1])))
    m = MarginalTable(schema, (np.array([3, 1]), np.array([2, 2])))
    assert m.counts[0].sum() == 4


@pytest.mark.parametrize("bad", [[10**20, 1], [float("nan"), 1], [1.5, 2]])
def test_marginal_table_rejects_non_integer_counts(bad):
    schema = make_schema([2, 2])
    with pytest.raises(SynthesisError, match="'v0': counts must be integers"):
        MarginalTable(schema, (bad, np.array([1, 1])))


def test_marginal_table_checks_unsigned_total_before_cast():
    schema = make_schema([2])
    with pytest.raises(SynthesisError, match=r"'v0': total exceeds 2\*\*53"):
        MarginalTable(schema, (np.array([2**63, 0], dtype=np.uint64),))
    m = MarginalTable(schema, (np.array([3, 1], dtype=np.uint8),))
    assert m.counts[0].dtype == np.int64 and m.counts[0].sum() == 4


def test_schema_json_roundtrip(tmp_path):
    schema = Schema(
        (
            VariableSpec("sex", ("F", "M"), "categorical"),
            VariableSpec("age", ("0", "1", "2"), "ordinal"),
        )
    )
    path = tmp_path / "schema.json"
    write_schema(schema, path)
    assert load_schema(path) == schema


def test_load_schema_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(SynthesisError):
        load_schema(path)
    path.write_text('{"a": {"kind": "ordinal"}}')
    with pytest.raises(SynthesisError):
        load_schema(path)
    for labels in ("5", '"abc"', "null"):
        path.write_text('{"a": {"labels": %s}}' % labels)
        with pytest.raises(SynthesisError, match=r"bad\.json: .*'labels' list"):
            load_schema(path)
    path.write_text('{"a": ')
    with pytest.raises(SynthesisError, match=r"bad\.json: Expecting value"):
        load_schema(path)


def test_load_micro_csv_errors(tmp_path):
    schema = Schema((VariableSpec("a", ("x", "y")), VariableSpec("b", ("0", "1"))))
    path = tmp_path / "rows.csv"
    path.write_text("a,b\nx,0\ny,9\n")
    with pytest.raises(SynthesisError, match=r"variable 'b', row 2"):
        load_micro_csv(path, schema)
    path.write_text("a\nx\n")
    with pytest.raises(SynthesisError, match="missing column"):
        load_micro_csv(path, schema)
    path.write_text("a,b\nx,0\ny\n")
    with pytest.raises(SynthesisError, match=r"rows\.csv: line 3: 1 field"):
        load_micro_csv(path, schema)
    path.write_text("a,b\n")
    assert load_micro_csv(path, schema).n_rows == 0


def test_load_micro_csv_ignores_extra_columns(tmp_path):
    schema = Schema((VariableSpec("a", ("x", "y")),))
    path = tmp_path / "rows.csv"
    path.write_text("junk,a\n1,y\n2,x\n")
    table = load_micro_csv(path, schema)
    assert table.codes.ravel().tolist() == [1, 0]


# A 300-character label that csv quotes, with 1- to 4-byte UTF-8 characters.
LONG_LABEL = 'a"é€𝄞,' * 50

# Label pieces the csv module must quote or keep as they are, and one long
# label, so that a column's field texts range from 1 to over 600 bytes.
LABEL = st.one_of(
    st.lists(
        st.sampled_from(["a", "bc", ",", '"', " ", "\n", "\r", "é", "東京", "€", "𝄞"]),
        max_size=3,
    ).map("".join),
    st.just(LONG_LABEL),
)


@st.composite
def labelled_tables(draw):
    """A small table whose labels hold separators, quotes, newlines and spaces."""
    table = draw(small_tables())
    variables = tuple(
        VariableSpec(v.name, draw(st.lists(LABEL, min_size=m, max_size=m, unique=True)))
        for v, m in zip(table.schema.variables, table.schema.dims)
    )
    return MicroTable(Schema(variables), table.codes)


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_tables(), labelled_tables()))
def test_micro_csv_roundtrip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_micro_csv(table, path)
    back = load_micro_csv(path, table.schema)
    assert (back.codes == table.codes).all()


def write_rows_oracle(table, path):
    """The writer's reference: one csv.writer row per record, label by label."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        labels = [v.labels for v in table.schema.variables]
        for row in table.codes:
            writer.writerow([labels[i][c] for i, c in enumerate(row)])


def test_write_micro_csv_matches_row_by_row_oracle(tmp_path):
    tricky = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", " pad ", "Zürich", "東京", "€𝄞")
    schema = Schema(
        (
            VariableSpec("tricky", tricky),
            VariableSpec("plain", ("x", "y", "z")),
            VariableSpec("empty", ("", "e")),
        )
    )
    cases = {
        "crosses a block": random_table([8, 3, 2], _CSV_BLOCK_ROWS + 3, seed=5).codes,
        **{
            f"{n} rows": random_table([8, 3, 2], n, seed=n).codes
            for n in (_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1)
        },
        "empty": np.zeros((0, 3), dtype=np.int64),
        "empty label in a row": np.array([[0, 1, 0], [6, 2, 1]]),
    }
    for name, codes in cases.items():
        table = MicroTable(schema, codes)
        write_micro_csv(table, tmp_path / "new.csv")
        write_rows_oracle(table, tmp_path / "oracle.csv")
        blob = (tmp_path / "new.csv").read_bytes()
        assert blob == (tmp_path / "oracle.csv").read_bytes(), name
        assert (load_micro_csv(tmp_path / "new.csv", schema).codes == codes).all()
    # An empty label inside a wider row stays an empty field.
    assert blob.endswith('"a,b",y,\r\n東京,z,e\r\n'.encode())
    # A long label ends each block at _CSV_BLOCK_BYTES, well before
    # _CSV_BLOCK_ROWS rows, so these rows cross several blocks.
    n = 2 * _CSV_BLOCK_BYTES // len(LONG_LABEL) + 7
    wide_schema = Schema(
        (VariableSpec("long", ("x", LONG_LABEL)), VariableSpec("b", ("0", "1")))
    )
    wide = MicroTable(wide_schema, random_table([2, 2], n, seed=6).codes)
    write_micro_csv(wide, tmp_path / "new.csv")
    write_rows_oracle(wide, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    # csv.writer quotes a lone empty field, so a one-column row is never blank.
    one = MicroTable(Schema((VariableSpec("only", ("", "x")),)), np.array([[0], [1]]))
    write_micro_csv(one, tmp_path / "new.csv")
    write_rows_oracle(one, tmp_path / "oracle.csv")
    blob = (tmp_path / "new.csv").read_bytes()
    assert blob == (tmp_path / "oracle.csv").read_bytes() == b'only\r\n""\r\nx\r\n'


# Every character a csv field may need quoted or kept as it is, in 1 to 4
# UTF-8 bytes, and one long label; an empty draw gives the empty label.
FIELD_LABEL = st.one_of(
    st.text(
        alphabet=[",", '"', "\r", "\n", " ", "\t", "a", "é", "東", "€", "𝄞"],
        max_size=4,
    ),
    st.just(LONG_LABEL),
)


@st.composite
def quoted_tables(draw):
    """A table of 1 to 4 columns whose labels are drawn from FIELD_LABEL."""
    labels = st.lists(FIELD_LABEL, min_size=1, max_size=4, unique=True)
    variables = tuple(
        VariableSpec(f"v{i}", draw(labels)) for i in range(draw(st.integers(1, 4)))
    )
    schema = Schema(variables)
    n = draw(st.integers(0, 20))
    codes = np.array(
        [[draw(st.integers(0, m - 1)) for m in schema.dims] for _ in range(n)],
        dtype=np.int64,
    ).reshape(n, schema.d)
    return MicroTable(schema, codes)


@settings(max_examples=200, deadline=None)
@given(quoted_tables())
def test_write_micro_csv_matches_csv_writer_on_any_labels(tmp_path_factory, table):
    folder = tmp_path_factory.mktemp("csv")
    write_micro_csv(table, folder / "new.csv")
    write_rows_oracle(table, folder / "oracle.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "oracle.csv").read_bytes()
    back = load_micro_csv(folder / "new.csv", table.schema)
    assert (back.codes == table.codes).all()


def test_write_micro_csv_memory_is_bounded_by_block_bytes(tmp_path, monkeypatch):
    """A 64 KiB label used in 4 of 20k rows is written apart: its column's
    records stay 2 bytes wide, so the rows go out in full blocks of
    _CSV_BLOCK_ROWS, one write each. The peak stays within the docstring's
    bound of 11 blocks of records plus the texts, and the bytes still match
    the oracle."""
    wide = "w" * (1 << 16)
    schema = Schema((VariableSpec("wide", ("a", wide)), VariableSpec("x", ("0", "1"))))
    codes = np.zeros((20_000, 2), dtype=np.uint8)
    codes[::5000, 0] = 1
    codes[1::2, 1] = 1
    table = MicroTable(schema, codes)
    writes = []

    class CountingFile(io.FileIO):
        def write(self, data):
            writes.append(len(data))
            return super().write(data)

    monkeypatch.setattr(dataset, "open", CountingFile, raising=False)
    tracemalloc.start()
    try:
        write_micro_csv(table, tmp_path / "new.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    # Each padded text is at most as wide as the widest field: 2 * (len(wide) + 1).
    assert peak < 11 * _CSV_BLOCK_BYTES + 2 * (len(wide) + 1)
    # The header, then one write per block of _CSV_BLOCK_ROWS rows.
    assert len(writes) == 1 + math.ceil(len(codes) / _CSV_BLOCK_ROWS)
    write_rows_oracle(table, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_write_micro_csv_names_a_label_csv_refuses(tmp_path, monkeypatch):
    """Python 3.10's csv.writer refuses NUL; a label it refuses is a
    SynthesisError naming the variable and the label, raised before the
    file is opened."""
    real = csv.writer

    class RefusesNul:
        def __init__(self, fh):
            self.writer = real(fh)

        def writerow(self, row):
            if any("\0" in field for field in row):
                raise csv.Error("need to escape, but no escapechar set")
            return self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", RefusesNul)
    schema = Schema(
        (VariableSpec("x", ("0", "1")), VariableSpec("city", ("a", "b\0c")))
    )
    path = tmp_path / "out.csv"
    with pytest.raises(SynthesisError) as info:
        write_micro_csv(MicroTable(schema, np.array([[0, 0]])), path)
    assert str(info.value) == (
        "variable 'city', label 'b\\x00c': cannot be written as CSV: "
        "need to escape, but no escapechar set"
    )
    assert not path.exists()


def test_load_micro_csv_names_faults_across_blocks(tmp_path):
    schema = Schema((VariableSpec("a", ("x", "x\ny")), VariableSpec("b", ("0", "1"))))
    path = tmp_path / "rows.csv"
    n = _CSV_BLOCK_ROWS + 5
    path.write_text("a,b\n" + "x,0\n" * (n - 1) + "x,zz\n")
    with pytest.raises(SynthesisError, match=rf"'b', row {n}: unknown label 'zz'"):
        load_micro_csv(path, schema)
    # A quoted field spanning two lines: the short row is named by physical line.
    path.write_text('a,b\n"x\ny",1\n' + "x,0\n" * _CSV_BLOCK_ROWS + "y\n")
    with pytest.raises(
        SynthesisError, match=rf"rows\.csv: line {_CSV_BLOCK_ROWS + 4}: 1 field"
    ):
        load_micro_csv(path, schema)
    # Unknown labels are named in row order, then in schema order within a row.
    for body, expected in (
        ("x,9\nq,1", "'b', row 2: unknown label '9'"),
        ("q,9", "'a', row 2: unknown label 'q'"),
    ):
        path.write_text(f"a,b\nx,0\n{body}\n")
        with pytest.raises(SynthesisError, match=expected):
            load_micro_csv(path, schema)
    # The first fault in file order wins, even when a later one ends the block.
    for later in ("x", "x," + "9" * 200_000):
        path.write_text(f"a,b\nx,0\nq,1\nx,1\n{later}\n")
        with pytest.raises(SynthesisError, match=r"'a', row 2: unknown label 'q'"):
            load_micro_csv(path, schema)
    path.write_text("a,b\nx,0\nx," + "9" * 200_000 + "\n")
    with pytest.raises(SynthesisError, match=r"rows\.csv: field larger than field"):
        load_micro_csv(path, schema)


def read_outcome(read, path, schema):
    """A reader's codes, or the message of the SynthesisError it raised."""
    try:
        return read(path, schema).codes.tolist()
    except SynthesisError as exc:
        return str(exc)


@st.composite
def micro_files(draw):
    """A table's CSV bytes with LF or CRLF line ends, with or without a final
    newline, maybe with an extra column, and maybe with one field replaced
    by a LABEL draw, which may be no label of its variable."""
    table = draw(st.one_of(small_tables(max_n=12), labelled_tables()))
    labels = [v.labels for v in table.schema.variables]
    rows = [list(table.schema.names)] + [
        [labels[i][c] for i, c in enumerate(row)] for row in table.codes.tolist()
    ]
    if draw(st.booleans()):
        at = draw(st.integers(0, table.schema.d))
        for r, row in enumerate(rows):
            row.insert(at, draw(LABEL) if r else "extra")
    if len(rows) > 1 and draw(st.booleans()):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(LABEL)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=eol).writerows(rows)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text[: -len(eol)]
    return table.schema, text.encode()


@settings(max_examples=300, deadline=None)
@given(micro_files())
def test_byte_reader_matches_csv_reader(tmp_path_factory, case):
    """Where the byte decoder reads a file, its codes are the csv.reader
    path's; load_micro_csv gives that path's codes or message either way."""
    schema, blob = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(blob)
    want = read_outcome(_load_micro_rows, path, schema)
    fast = _load_micro_bytes(path, schema)
    if fast is not None:
        assert fast.codes.tolist() == want
    assert read_outcome(load_micro_csv, path, schema) == want


AB = Schema(
    (VariableSpec("a", ("x", "y", "é", "𝄞")), VariableSpec("b", ("0", "1", "")))
)
ONE = Schema((VariableSpec("a", ("x", "y")),))
ONE_EMPTY = Schema((VariableSpec("a", ("x", "")),))
DIGITS = Schema((VariableSpec("a", ("0", "1")), VariableSpec("b", ("0", "1", ""))))
# A quoted field whose quotes are a label's text: csv reads x.
QUOTED = Schema((VariableSpec("a", ("x", '"x"')), VariableSpec("b", ("0", "1"))))
# A key holds a field of up to 7 bytes.
SEVEN = Schema((VariableSpec("a", ("abcdefg", "y")), VariableSpec("b", ("0", "1"))))
EIGHT = Schema((VariableSpec("a", ("abcdefgh", "y")), VariableSpec("b", ("0", "1"))))
# These 1,000 labels leave some keys past their first slot, so lookups
# probe on.
SQUARES = tuple(str(i * i) for i in range(1000))
MANY = Schema((VariableSpec("a", SQUARES), VariableSpec("b", ("0", "1"))))
LIMIT = csv.field_size_limit()
HALF = b"z" * (LIMIT // 2)  # two fit a field, not a line

# Files the byte decoder reads itself, as csv.reader reads them.
PLAIN = {
    "LF": (AB, b"a,b\nx,0\ny,1\n"),
    "CRLF": (AB, b"a,b\r\nx,0\r\ny,1\r\n"),
    "mixed line ends": (AB, b"a,b\r\nx,0\ny,1\r\n"),
    "no final newline": (AB, b"a,b\nx,0\ny,1"),
    "no final CRLF": (AB, b"a,b\r\nx,0\r\ny,1"),
    "CR ending the last line": (AB, b"a,b\nx,0\ny,1\r"),
    "BOM": (AB, b"\xef\xbb\xbfa,b\r\nx,0\r\n"),
    "header only": (AB, b"a,b\n"),
    "header only, CRLF": (AB, b"a,b\r\n"),
    "header only, no newline": (AB, b"a,b"),
    "BOM and header only": (AB, b"\xef\xbb\xbfa,b"),
    "extra columns": (AB, b"junk,b,more,a\n1,0,,y\n2,1,z,x\n"),
    "duplicate header names": (AB, b"a,b,a,b\nx,0,y,1\ny,1,x,0\n"),
    "empty label": (AB, b"a,b\nx,\ny,1\n"),
    "multibyte labels": (AB, "a,b\né,0\n𝄞,1\n".encode()),
    "one column": (ONE, b"a\r\nx\r\ny\r\n"),
    "seven-byte label": (SEVEN, b"a,b\nabcdefg,0\ny,1\n"),
    "many labels": (MANY, ("a,b\n" + ",1\n".join(SQUARES[::-1]) + ",0\n").encode()),
    "a field of the limit": (AB, b"a,b,c\nx,0," + b"z" * (LIMIT - 4) + b"\n"),
}

# Files the byte decoder gives up, so the csv.reader path reads them.
REFUSED = {
    "blank line": (AB, b"a,b\nx,0\n\ny,1\n"),
    "blank line at the end": (AB, b"a,b\nx,0\n\n"),
    "blank CRLF line at the end": (AB, b"a,b\r\nx,0\r\n\r\n"),
    "blank line, one column": (ONE, b"a\nx\n\ny\n"),
    "blank line, one column with an empty label": (ONE_EMPTY, b"a\nx\n\nx\n"),
    "too many fields, then a blank line": (DIGITS, b"a,b\n0,1,1\n\n"),
    "lone CR": (AB, b"a,b\nx,0\ry,1\n"),
    "CR in the header": (AB, b"a,b\rx,0\n"),
    "NUL": (AB, b"a,b,c\nx,0,\x00\n"),
    "NUL in a label field": (AB, b"a,b\nx\x00,0\n"),
    "invalid UTF-8 in an ignored column": (AB, b"a,b,c\nx,0,\xff\n"),
    "invalid UTF-8 in the header": (AB, b"a,b,\xff\nx,0,1\n"),
    "field over the limit": (AB, b"a,b,c\nx,0," + b"z" * (LIMIT + 1) + b"\n"),
    "header field over the limit": (AB, b"a,b," + b"z" * (LIMIT + 1) + b"\nx,0,1\n"),
    "line over the limit": (AB, b"a,b,c,d\nx,0," + HALF + b"," + HALF + b"\n"),
    "too many fields": (AB, b"a,b\nx,0,9\n"),
    "too few fields": (AB, b"a,b\nx,0\ny\n"),
    "quoted field": (AB, b'a,b\n"x",0\n'),
    "quotes that are a label's text": (QUOTED, b'a,b\n"x",0\n'),
    "quoted header": (AB, b'"a",b\nx,0\n'),
    "quoted newline": (AB, b'a,b\n"x\ny",0\n'),
    "field wider than a key": (EIGHT, b"a,b\nabcdefgh,0\ny,1\n"),
    "unknown label": (AB, b"a,b\nx,0\nq,1\n"),
    "unknown wide label": (AB, b"a,b\nx,0\n" + b"q" * 9 + b",1\n"),
    "unknown label among many": (
        MANY,
        b"a,b\n" + b"".join(b"%d,1\n" % i for i in range(20)),
    ),
    "missing column": (AB, b"a,c\nx,0\n"),
    "blank header": (AB, b"\na,b\nx,0\n"),
    "empty file": (AB, b""),
    "BOM only": (AB, b"\xef\xbb\xbf"),
}


def test_label_table_runs_hold_every_probe():
    """MANY needs probes, and each variable's run has room for all of them
    past its hashed slots, so a search never reaches the next variable's."""
    keys, _, offsets, shifts, probes = _label_table(MANY, code_dtype(MANY))
    assert probes > 1
    ends = [*offsets.ravel()[1:].tolist(), keys.size]
    runs = zip(offsets.ravel().tolist(), shifts.ravel().tolist(), ends)
    for offset, shift, end in runs:
        assert end - offset == 2 ** (64 - shift) + probes - 1


@pytest.mark.parametrize("name", PLAIN)
def test_byte_reader_reads_plain_files(tmp_path, name):
    schema, blob = PLAIN[name]
    path = tmp_path / "t.csv"
    path.write_bytes(blob)
    fast = _load_micro_bytes(path, schema)
    assert fast is not None
    assert fast.codes.tolist() == read_outcome(_load_micro_rows, path, schema)


@pytest.mark.parametrize("name", REFUSED)
def test_byte_reader_gives_up_where_csv_decides(tmp_path, name):
    """Each refusal reaches the csv.reader path, whose codes or message
    load_micro_csv gives: NUL, for one, is an error on Python 3.10 and a
    character on 3.11 and later."""
    schema, blob = REFUSED[name]
    path = tmp_path / "t.csv"
    path.write_bytes(blob)
    assert _load_micro_bytes(path, schema) is None
    assert read_outcome(load_micro_csv, path, schema) == read_outcome(
        _load_micro_rows, path, schema
    )


def test_byte_reader_crosses_blocks(tmp_path):
    """Lines that cross _CSV_READ_BYTES, and one line longer than a block,
    read as csv.reader reads them."""
    table = random_table([3, 4, 2], 3 * _CSV_READ_BYTES // 6 + 5, seed=8)
    path = tmp_path / "t.csv"
    write_micro_csv(table, path)
    blob = path.read_bytes()
    long_field = b"z" * (2 * _CSV_READ_BYTES)
    lines = blob.split(b"\r\n")
    lines[0] += b",note"
    lines[1:-1] = [
        line + b"," + (long_field if i == 7 else b"")
        for i, line in enumerate(lines[1:-1])
    ]
    for eol in (b"\r\n", b"\n"):
        path.write_bytes(eol.join(lines))
        fast = _load_micro_bytes(path, table.schema)
        assert fast is not None
        assert (fast.codes == table.codes).all()


def test_byte_reader_leaves_pipes_to_csv(tmp_path):
    """A pipe cannot be read twice, so it goes straight to the csv.reader path."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    assert _load_micro_bytes(path, AB) is None

    def feed():
        with open(path, "wb") as fh:
            fh.write(b"a,b\nx,0\ny,1\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert load_micro_csv(path, AB).codes.tolist() == [[0, 0], [1, 1]]
    writer.join()


def test_marginals_csv_roundtrip(tmp_path):
    schema = make_schema([3, 2])
    marg = MarginalTable(schema, (np.array([4, 0, 6]), np.array([5, 5])))
    path = tmp_path / "m.csv"
    write_marginals_csv(marg, path)
    back = load_marginals_csv(path, schema)
    assert all((a == b).all() for a, b in zip(back.counts, marg.counts))


def test_marginals_csv_errors(tmp_path):
    schema = make_schema([2])
    path = tmp_path / "m.csv"
    path.write_text("wrong,header,here\n")
    with pytest.raises(SynthesisError, match="expected header"):
        load_marginals_csv(path, schema)
    path.write_text("variable,label,count\nv0,0,3\nv0,0,4\n")
    with pytest.raises(SynthesisError, match="duplicate"):
        load_marginals_csv(path, schema)
    path.write_text("variable,label,count\nv0,0,-3\n")
    with pytest.raises(SynthesisError, match="negative"):
        load_marginals_csv(path, schema)
    path.write_text("variable,label,count\nv0,0,3\n\nv0,1\n")
    with pytest.raises(SynthesisError, match=r"m\.csv: line 4: 2 field"):
        load_marginals_csv(path, schema)
    path.write_text("variable,label,count\nv0,9,3\n")
    with pytest.raises(
        SynthesisError, match=r"m\.csv: row 1: variable 'v0': unknown label '9'"
    ):
        load_marginals_csv(path, schema)
    path.write_text("variable,label,count\nv0,1,3\nzz,1,3\n")
    with pytest.raises(SynthesisError, match=r"m\.csv: row 2: unknown variable 'zz'"):
        load_marginals_csv(path, schema)
    # omitted categories default to zero
    path.write_text("variable,label,count\nv0,1,3\n")
    marg = load_marginals_csv(path, schema)
    assert marg.counts[0].tolist() == [0, 3]


def test_marginal_counts_are_bounded(tmp_path):
    """Counts and totals up to 2**53 keep the ECDF's partial sums exact."""
    schema = make_schema([2])
    path = tmp_path / "m.csv"
    for big in (2**53 + 1, 5 * 10**18, 10**20):
        path.write_text(f"variable,label,count\nv0,1,3\nv0,0,{big}\n")
        with pytest.raises(SynthesisError, match=r"m\.csv: row 2: count exceeds"):
            load_marginals_csv(path, schema)
    path.write_text(f"variable,label,count\nv0,0,{2**53}\nv0,1,{2**53}\n")
    with pytest.raises(SynthesisError, match=r"'v0': total exceeds 2\*\*53"):
        load_marginals_csv(path, schema)
    path.write_text(f"variable,label,count\nv0,0,{2**53}\n")
    assert load_marginals_csv(path, schema).counts[0].sum() == 2**53
    # two int64 counts whose int64 sum would wrap negative
    with pytest.raises(SynthesisError, match=r"total exceeds 2\*\*53"):
        MarginalTable(schema, (np.array([5 * 10**18, 5 * 10**18]),))


def test_marginals_of_counts():
    table = MicroTable(make_schema([3]), np.array([[0], [2], [2], [1]]))
    marg = marginals_of(table)
    assert marg.counts[0].tolist() == [1, 1, 2]


@settings(max_examples=30, deadline=None)
@given(small_tables())
def test_marginals_conserve_total(table):
    marg = marginals_of(table)
    for i in range(table.schema.d):
        assert marg.counts[i].sum() == table.n_rows

