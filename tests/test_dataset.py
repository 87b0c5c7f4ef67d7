"""Schema, table, and CSV ingestion behavior."""

import csv

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
    build_seed,
    generate_table,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    make_transfer_benchmark,
    marginals_of,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth.dataset import _CSV_BLOCK_ROWS
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
        assert table.codes.dtype == np.int64 and not table.codes.flags.writeable
        for i in range(table.schema.d):
            assert table.column(i).flags.c_contiguous
    # An input already in the table's layout is still copied, not aliased.
    src = np.asfortranarray(np.array([[0, 1], [1, 0]], dtype=np.int64))
    table = MicroTable(make_schema([2, 2]), src)
    src[0, 0] = 1
    assert table.codes[0, 0] == 0


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


# Label pieces the csv module must quote or keep as they are.
LABEL = st.lists(
    st.sampled_from(["a", "bc", ",", '"', " ", "\n", "\r", "é", "東京"]), max_size=3
).map("".join)


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
    tricky = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", " pad ", "Zürich", "東京")
    schema = Schema(
        (
            VariableSpec("tricky", tricky),
            VariableSpec("plain", ("x", "y", "z")),
            VariableSpec("empty", ("", "e")),
        )
    )
    cases = {
        "crosses a block": random_table([7, 3, 2], _CSV_BLOCK_ROWS + 3, seed=5).codes,
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
    # csv.writer quotes a lone empty field, so a one-column row is never blank.
    one = MicroTable(Schema((VariableSpec("only", ("", "x")),)), np.array([[0], [1]]))
    write_micro_csv(one, tmp_path / "new.csv")
    write_rows_oracle(one, tmp_path / "oracle.csv")
    blob = (tmp_path / "new.csv").read_bytes()
    assert blob == (tmp_path / "oracle.csv").read_bytes() == b'only\r\n""\r\nx\r\n'


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

