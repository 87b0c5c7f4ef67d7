"""End-to-end generation, the benchmark generator, and the permutation study."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from copulasynth import (
    MicroTable,
    Schema,
    SynthesisConfig,
    SynthesisError,
    VariableSpec,
    fit_parameters,
    generate_table,
    learn_structure,
    load_config,
    make_transfer_benchmark,
    marginals_of,
    run_experiment,
    run_permutation_study,
    sample_bayesnet,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth import pipeline
from copulasynth.pipeline import rank_recode
from conftest import make_schema, random_table


def write_benchmark_inputs(tmp_path, seed=3, d=5, n=3000, skew=0.5):
    source, target = make_transfer_benchmark(
        seed=seed, d=d, n_source=n, n_target=n, marginal_skew=skew
    )
    write_schema(source.schema, tmp_path / "schema.json")
    write_micro_csv(source, tmp_path / "source.csv")
    write_micro_csv(target, tmp_path / "reference.csv")
    write_marginals_csv(marginals_of(target), tmp_path / "targets.csv")
    return source, target


def base_config(tmp_path, **overrides):
    fields = {
        "source_data": str(tmp_path / "source.csv"),
        "schema": str(tmp_path / "schema.json"),
        "target_marginals": str(tmp_path / "targets.csv"),
        "reference_data": str(tmp_path / "reference.csv"),
        "method": "bn_copula",
        "output_size": 5000,
        "seed": 11,
    }
    fields.update(overrides)
    return SynthesisConfig(**fields)


def test_config_validation():
    with pytest.raises(SynthesisError, match="unknown method"):
        SynthesisConfig(source_data="s", schema="c", method="magic",
                        output_size=10, seed=0)
    with pytest.raises(SynthesisError, match="output_size"):
        SynthesisConfig(source_data="s", schema="c", method="bn",
                        output_size=0, seed=0)
    with pytest.raises(SynthesisError, match="external_command"):
        SynthesisConfig(source_data="s", schema="c", method="external_copula",
                        output_size=10, seed=0)
    cfg = SynthesisConfig(source_data="s", schema="c", method="external_copula",
                          output_size=10, seed=0, external_command="gen --fast")
    assert cfg.external_command == ("gen", "--fast")
    for field, value in [
        ("output_size", "100"),
        ("output_size", True),
        ("output_size", 10.0),
        ("seed", -1),
        ("seed", False),
        ("max_parents", "3"),
        ("max_iter", None),
        ("alpha", "0.1"),
        ("alpha", True),
        ("tol", float("nan")),
        ("baseline_target_marginals", "no"),
        ("source_data", None),
        ("schema", None),
        ("method", 5),
        ("target_marginals", ["t.csv"]),
        ("output_dir", 5),
        ("reference_data", 3),
        ("population_data", b"p.csv"),
        ("exclude_variables", "v0"),
        ("exclude_variables", ["v0", 1]),
        ("external_command", 5),
        ("external_command", ["gen", None]),
        ("source_data", ""),
        ("schema", ""),
        ("target_marginals", ""),
        ("output_dir", ""),
        ("reference_data", ""),
        ("population_data", ""),
        ("source_data", "s\x00"),
        ("output_dir", "out\x00"),
        ("external_command", "gen 'unclosed"),
    ]:
        fields = dict(source_data="s", schema="c", method="bn", output_size=10, seed=0)
        fields[field] = value
        with pytest.raises(SynthesisError, match=field):
            SynthesisConfig(**fields)
    assert SynthesisConfig(source_data="s", schema="c", method="bn",
                           output_size=np.int64(10), seed=0, alpha=1, tol=1e-6)


def test_load_config_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source_data": "s", "schema": "c", "method": "bn",
                                "output_size": 5, "seed": 1, "typo_field": 2}))
    with pytest.raises(SynthesisError, match="typo_field"):
        load_config(path)
    path.write_text(json.dumps({"method": "bn"}))
    with pytest.raises(SynthesisError, match="missing config field"):
        load_config(path)
    path.write_text(json.dumps({"source_data": "s", "schema": "c", "method": "bn",
                                "output_size": 5, "seed": 1,
                                "exclude_variables": ["a"]}))
    assert load_config(path).exclude_variables == ("a",)


def test_rank_recode_drops_unobserved_categories():
    schema = make_schema([4, 2])
    codes = np.array([[0, 0], [2, 1], [2, 0], [0, 1]])
    recoded, margs = rank_recode(MicroTable(schema, codes))
    assert recoded.schema.dims == (2, 2)
    assert recoded.schema.variables[0].labels == ("0", "2")
    assert recoded.column(0).tolist() == [0, 1, 1, 0]
    assert margs.schema == recoded.schema
    assert [c.tolist() for c in margs.counts] == [[2, 2], [2, 2]]


def test_monotone_recoding_equivalence_for_full_support():
    """With every category observed, rank recoding is the identity, so the
    raw-code learner and the normalized-data learner agree exactly."""
    table = random_table([3, 2, 4], 2500, seed=6)
    assert all(
        len(np.unique(table.column(i))) == m for i, m in enumerate(table.schema.dims)
    )
    recoded, _ = rank_recode(table)
    assert (recoded.codes == table.codes).all()
    dag_raw = learn_structure(table, max_parents=3, seed=17)
    dag_rank = learn_structure(recoded, max_parents=3, seed=17)
    assert dag_raw == dag_rank
    bn_raw = fit_parameters(table, dag_raw, alpha=0.1)
    bn_rank = fit_parameters(recoded, dag_rank, alpha=0.1)
    s_raw = sample_bayesnet(bn_raw, 500, np.random.default_rng(5))
    s_rank = sample_bayesnet(bn_rank, 500, np.random.default_rng(5))
    assert (s_raw.codes == s_rank.codes).all()


def test_generate_table_deterministic_per_seed():
    src, tgt = make_transfer_benchmark(seed=2, d=4, n_source=1500, n_target=1500)
    cfg = SynthesisConfig(source_data="x", schema="x", method="bn_copula",
                          output_size=2000, seed=9)
    targets = marginals_of(tgt)
    a, _ = generate_table(src, targets, cfg, 9)
    b, _ = generate_table(src, targets, cfg, 9)
    assert (a.codes == b.codes).all()
    c, _ = generate_table(src, targets, cfg, 10)
    assert (a.codes != c.codes).any()


def test_bn_method_keeps_source_marginals():
    src, tgt = make_transfer_benchmark(seed=4, d=4, n_source=4000, n_target=4000)
    targets = marginals_of(tgt)
    cfg = SynthesisConfig(source_data="x", schema="x", method="bn",
                          output_size=30000, seed=3)
    syn, _ = generate_table(src, targets, cfg, 3)

    def tv(table, i, counts):
        p = counts[i] / counts[i].sum()
        q = np.bincount(syn.column(i), minlength=len(p)) / syn.n_rows
        return 0.5 * np.abs(p - q).sum()

    src_m, tgt_m = marginals_of(src), marginals_of(tgt)
    for i in range(4):
        assert tv(syn, i, src_m.counts) < tv(syn, i, tgt_m.counts)


def test_independent_method_target_flag():
    src, tgt = make_transfer_benchmark(seed=5, d=4, n_source=4000, n_target=4000)
    targets = marginals_of(tgt)
    cfg = SynthesisConfig(source_data="x", schema="x", method="independent",
                          output_size=30000, seed=3, baseline_target_marginals=True)
    syn, _ = generate_table(src, targets, cfg, 3)
    for i in range(4):
        p = targets.counts[i] / targets.counts[i].sum()
        q = np.bincount(syn.column(i), minlength=len(p)) / syn.n_rows
        assert 0.5 * np.abs(p - q).sum() < 0.02


def test_ipf_unreachable_mass_reaches_report(tmp_path):
    schema = make_schema([2, 2])
    source = MicroTable(schema, np.array([[0, 0], [0, 1], [0, 1]]))
    write_schema(schema, tmp_path / "schema.json")
    write_micro_csv(source, tmp_path / "source.csv")
    (tmp_path / "targets.csv").write_text(
        "variable,label,count\nv0,0,5\nv0,1,5\nv1,0,5\nv1,1,5\n"
    )
    cfg = SynthesisConfig(
        source_data=str(tmp_path / "source.csv"),
        schema=str(tmp_path / "schema.json"),
        target_marginals=str(tmp_path / "targets.csv"),
        method="ipf", output_size=50, seed=1,
    )
    report = run_experiment(cfg)
    assert any("unreachable" in w for w in report.warnings)


def test_run_experiment_writes_deterministic_outputs(tmp_path):
    write_benchmark_inputs(tmp_path, d=4, n=1200)
    out = tmp_path / "out"
    cfg = base_config(tmp_path, output_size=2000, output_dir=str(out))
    run_experiment(cfg)
    first = {
        name: (out / name).read_bytes()
        for name in ("synthetic.csv", "report.json", "marginals.csv")
    }
    run_experiment(cfg)
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_run_experiment_outputs_are_all_or_none(tmp_path, monkeypatch):
    """A run whose last write fails leaves no output and no temporary file."""
    write_benchmark_inputs(tmp_path, d=4, n=1200)
    out = tmp_path / "out"
    names = ("synthetic.csv", "report.json", "marginals.csv")

    def half_write(series, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("variable,")
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "write_marginal_csv", half_write)
        cfg = base_config(tmp_path, output_size=200, output_dir=str(out))
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg)
        assert sorted(out.iterdir()) == []
    # An earlier run's outputs survive a later run that fails.
    run_experiment(cfg)
    before = {name: (out / name).read_bytes() for name in names}
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "write_marginal_csv", half_write)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(dataclasses.replace(cfg, seed=cfg.seed + 1))
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert {name: (out / name).read_bytes() for name in names} == before


def test_report_json_is_valid_json(tmp_path):
    write_benchmark_inputs(tmp_path, d=4, n=1200)
    out = tmp_path / "out"
    cfg = base_config(tmp_path, output_size=1500, output_dir=str(out))
    run_experiment(cfg)
    doc = json.loads((out / "report.json").read_text())
    assert set(doc["srmse_by_n"]) == {"1", "2", "3", "4"}
    assert 0.0 <= doc["precision"] <= 1.0


EXTERNAL_GENERATOR = """\
import argparse, sys
import numpy as np

parser = argparse.ArgumentParser()
parser.add_argument("--n", type=int, required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

rows = sys.stdin.read().strip().splitlines()
data = np.array([[float(t) for t in ln.split(",")] for ln in rows[1:]])
rng = np.random.default_rng(args.seed)
pick = rng.integers(0, len(data), args.n)
for r in pick:
    print(",".join(repr(float(v)) for v in data[r]))
"""


def test_external_copula_generator(tmp_path):
    script = tmp_path / "gen.py"
    script.write_text(EXTERNAL_GENERATOR)
    src, tgt = make_transfer_benchmark(seed=6, d=3, n_source=800, n_target=800)
    cfg = SynthesisConfig(
        source_data="x", schema="x", method="external_copula",
        output_size=1000, seed=4,
        external_command=(sys.executable, str(script)),
    )
    syn, _ = generate_table(src, marginals_of(tgt), cfg, 4)
    assert syn.n_rows == 1000
    assert syn.schema == src.schema
    again, _ = generate_table(src, marginals_of(tgt), cfg, 4)
    assert (syn.codes == again.codes).all()


ECHO_GENERATOR = """\
import sys

payload = sys.stdin.read()
with open(sys.argv[0] + ".in", "w") as handle:
    handle.write(payload)
print(payload.split("\\n", 1)[1])
"""


def test_external_copula_receives_source_ecdf_values(tmp_path):
    """The generator reads each source code's ECDF value, (#rows <= code) / N;
    echoed back through the source marginals, they give the source table."""
    script = tmp_path / "echo.py"
    script.write_text(ECHO_GENERATOR)
    src, _ = make_transfer_benchmark(seed=6, d=4, n_source=700, n_target=10)
    cfg = SynthesisConfig(
        source_data="x", schema="x", method="external_copula",
        output_size=src.n_rows, seed=4,
        external_command=(sys.executable, str(script)),
    )
    syn, _ = generate_table(src, marginals_of(src), cfg, 4)
    header, *rows = (tmp_path / "echo.py.in").read_text().splitlines()
    assert header == ",".join(src.schema.names)
    sent = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    ecdf = np.column_stack([
        np.searchsorted(np.sort(col), col, side="right") / src.n_rows
        for col in src.codes.T
    ])
    assert (sent == ecdf).all()
    assert syn.schema == src.schema
    assert (syn.codes == src.codes).all()


def test_external_copula_error_paths(tmp_path):
    src, tgt = make_transfer_benchmark(seed=6, d=3, n_source=100, n_target=100)
    bad = SynthesisConfig(
        source_data="x", schema="x", method="external_copula",
        output_size=10, seed=4,
        external_command=(sys.executable, "-c", "import sys; sys.exit(3)"),
    )
    with pytest.raises(SynthesisError, match="exited with code 3"):
        generate_table(src, marginals_of(tgt), bad, 4)
    short = SynthesisConfig(
        source_data="x", schema="x", method="external_copula",
        output_size=10, seed=4,
        external_command=(sys.executable, "-c", "print(0.5)"),
    )
    with pytest.raises(SynthesisError, match="emitted"):
        generate_table(src, marginals_of(tgt), short, 4)
    nul = dataclasses.replace(short, external_command=("gen\x00",))
    with pytest.raises(SynthesisError, match="failed to start"):
        generate_table(src, marginals_of(tgt), nul, 4)
    # python -c leaves sys.argv as ["-c", "--n", n, "--seed", s]
    emit = "import sys; print('nan,0.5,0.5\\n' * int(sys.argv[2]))"
    nan = dataclasses.replace(short, external_command=(sys.executable, "-c", emit))
    with pytest.raises(SynthesisError, match=r"must lie in \(0,1\]"):
        generate_table(src, marginals_of(tgt), nan, 4)
    for row, message in (
        ("0.5,abc,0.5", "not numeric"),
        ("0.5,0.5", "has shape"),
    ):
        emit = f"import sys; print('{row}\\n' * int(sys.argv[2]))"
        wrong = dataclasses.replace(short, external_command=(sys.executable, "-c", emit))
        with pytest.raises(SynthesisError, match=message):
            generate_table(src, marginals_of(tgt), wrong, 4)
    # Rows of 3 and 2 values: the first short row is named, not reported as
    # a non-numeric array.
    emit = "import sys; print('0.5,0.5,0.5\\n0.5,0.5\\n' * (int(sys.argv[2]) // 2))"
    ragged = dataclasses.replace(short, external_command=(sys.executable, "-c", emit))
    with pytest.raises(SynthesisError, match=r"row 2 has shape \(2,\), expected \(3,\)"):
        generate_table(src, marginals_of(tgt), ragged, 4)


def test_external_copula_skips_a_header_line():
    """A generator may print a header line first; it changes no code."""
    src, _ = make_transfer_benchmark(seed=6, d=3, n_source=200, n_target=10)
    runs = []
    for echo in (  # the payload without, then with, its header line
        "import sys; print(sys.stdin.read().split('\\n', 1)[1])",
        "import sys; print(sys.stdin.read())",
    ):
        cfg = SynthesisConfig(
            source_data="x", schema="x", method="external_copula",
            output_size=src.n_rows, seed=4,
            external_command=(sys.executable, "-c", echo),
        )
        runs.append(generate_table(src, marginals_of(src), cfg, 4)[0])
    assert (runs[0].codes == src.codes).all()
    assert (runs[1].codes == runs[0].codes).all()


CSV_ECHO_GENERATOR = """\
import csv
import json
import sys

header, *rows = csv.reader(sys.stdin)
with open(sys.argv[0] + ".header", "w") as handle:
    json.dump(header, handle)
csv.writer(sys.stdout).writerows(rows)
"""


def test_external_copula_quotes_variable_names(tmp_path):
    """Names holding a comma or a quote reach a csv reader as one field each."""
    script = tmp_path / "echo.py"
    script.write_text(CSV_ECHO_GENERATOR)
    src, _ = make_transfer_benchmark(seed=6, d=3, n_source=300, n_target=10)
    names = ("a,b", 'say "hi"', "c")
    schema = Schema(tuple(
        VariableSpec(name, v.labels, v.kind)
        for name, v in zip(names, src.schema.variables)
    ))
    src = MicroTable(schema, src.codes)
    cfg = SynthesisConfig(
        source_data="x", schema="x", method="external_copula",
        output_size=src.n_rows, seed=4,
        external_command=(sys.executable, str(script)),
    )
    syn, _ = generate_table(src, marginals_of(src), cfg, 4)
    assert json.loads((tmp_path / "echo.py.header").read_text()) == list(names)
    assert (syn.codes == src.codes).all()


def test_benchmark_validation_and_shape():
    with pytest.raises(SynthesisError):
        make_transfer_benchmark(d=1)
    with pytest.raises(SynthesisError):
        make_transfer_benchmark(marginal_skew=1.5)
    with pytest.raises(SynthesisError):
        make_transfer_benchmark(n_source=0)
    with pytest.raises(SynthesisError, match="seed"):
        make_transfer_benchmark(seed=-1)
    src, tgt = make_transfer_benchmark(seed=0, d=5, n_source=200, n_target=300)
    assert src.schema == tgt.schema
    assert src.n_rows == 200 and tgt.n_rows == 300
    assert src.schema.dims == (2, 3, 4, 2, 3)
    kinds = [v.kind for v in src.schema.variables]
    assert kinds == ["categorical", "ordinal"] * 2 + ["categorical"]


def _benchmark_via_uniforms(seed, d, n_source, n_target, skew):
    """The benchmark pair built on the uniform scale: Phi on every latent draw."""
    ndtr = pytest.importorskip("scipy.special").ndtr
    dims = [2 + (i % 3) for i in range(d)]
    corr = 0.6 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    chol = np.linalg.cholesky(corr)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for n, powered in ((n_source, False), (n_target, True)):
        uniforms = ndtr(rng.standard_normal((n, d)) @ chol.T)
        codes = np.empty((n, d), dtype=np.int64)
        for i in range(d):
            cuts = np.arange(1, dims[i]) / dims[i]
            if powered:
                cuts = cuts ** (1.0 + skew if i % 2 == 0 else 1.0 / (1.0 + skew))
            codes[:, i] = np.searchsorted(cuts, uniforms[:, i], side="left")
        out.append(codes)
    return out


@pytest.mark.parametrize("d", [2, 9, 20])
@pytest.mark.parametrize("skew", [0.0, 0.5, 1.0])
def test_benchmark_normal_scale_cuts_match_uniform_scale(d, skew):
    for seed in (0, 1, 11, 123):
        src, tgt = make_transfer_benchmark(
            seed=seed, d=d, n_source=3000, n_target=2000, marginal_skew=skew
        )
        want_src, want_tgt = _benchmark_via_uniforms(seed, d, 3000, 2000, skew)
        np.testing.assert_array_equal(src.codes, want_src)
        np.testing.assert_array_equal(tgt.codes, want_tgt)


def test_benchmark_zero_skew_marginals_indistinguishable():
    src, tgt = make_transfer_benchmark(seed=8, d=4, n_source=5000, n_target=5000,
                                       marginal_skew=0.0)
    chi2_contingency = pytest.importorskip("scipy.stats").chi2_contingency
    for i in range(4):
        m = src.schema.dims[i]
        table = np.vstack([
            np.bincount(src.column(i), minlength=m),
            np.bincount(tgt.column(i), minlength=m),
        ])
        assert chi2_contingency(table).pvalue > 0.01


def test_benchmark_skew_separates_marginals():
    src, tgt = make_transfer_benchmark(seed=9, d=6, n_source=6000, n_target=6000,
                                       marginal_skew=0.5)
    for i in range(6):
        m = src.schema.dims[i]
        p = np.bincount(src.column(i), minlength=m) / src.n_rows
        q = np.bincount(tgt.column(i), minlength=m) / tgt.n_rows
        assert 0.5 * np.abs(p - q).sum() >= 0.1


def test_benchmark_shares_rank_correlation():
    src, tgt = make_transfer_benchmark(seed=10, d=5, n_source=100_000,
                                       n_target=100_000, marginal_skew=0.5)
    spearmanr = pytest.importorskip("scipy.stats").spearmanr
    rs = spearmanr(src.codes).statistic
    rt = spearmanr(tgt.codes).statistic
    assert np.abs(rs - rt).max() <= 0.05


def test_permutation_study_guards(tmp_path):
    write_benchmark_inputs(tmp_path, d=4, n=800)
    cfg = base_config(tmp_path, method="bn", output_size=500)
    with pytest.raises(SynthesisError, match="bn_copula"):
        run_permutation_study(cfg, 3)
    cfg2 = base_config(tmp_path, output_size=500)
    with pytest.raises(SynthesisError, match="at least one"):
        run_permutation_study(cfg2, 0)


def test_permutation_study_needs_categorical_variables(tmp_path):
    schema = make_schema([2, 2], kinds=["ordinal", "ordinal"])
    table = random_table([2, 2], 300, seed=1, kinds=["ordinal", "ordinal"])
    write_schema(schema, tmp_path / "schema.json")
    write_micro_csv(table, tmp_path / "source.csv")
    cfg = SynthesisConfig(
        source_data=str(tmp_path / "source.csv"),
        schema=str(tmp_path / "schema.json"),
        method="bn_copula", output_size=100, seed=0,
    )
    with pytest.raises(SynthesisError, match="categorical"):
        run_permutation_study(cfg, 2)


def test_permutation_study_single_run_degenerate_std(tmp_path):
    write_benchmark_inputs(tmp_path, d=4, n=800)
    cfg = base_config(tmp_path, output_size=1000)
    study = run_permutation_study(cfg, 1)
    assert len(study.values[1]) == 1
    assert all(s == 0.0 for s in study.std.values())


def test_permutation_study_binary_orders_agree(tmp_path):
    """One binary categorical variable: only two label orders exist, and the
    scores must differ only by generation noise."""
    src, tgt = make_transfer_benchmark(seed=12, d=2, n_source=4000, n_target=4000)
    write_schema(src.schema, tmp_path / "schema.json")
    write_micro_csv(src, tmp_path / "source.csv")
    write_micro_csv(tgt, tmp_path / "reference.csv")
    write_marginals_csv(marginals_of(tgt), tmp_path / "targets.csv")
    cfg = base_config(tmp_path, output_size=30000, seed=2)
    study = run_permutation_study(cfg, 8)
    spread = max(study.values[1]) - min(study.values[1])
    assert spread < 0.03
