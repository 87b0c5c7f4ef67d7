"""Input checks that end in SynthesisError, each with its own message."""

import csv
import json

import numpy as np
import pytest

from copulasynth import (
    MicroTable,
    Schema,
    SynthesisConfig,
    SynthesisError,
    VariableSpec,
    build_seed,
    evaluate,
    fit_parameters,
    generate_table,
    learn_structure,
    load_config,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    marginals_of,
    sample_bayesnet,
    srmse_by_size,
    write_marginals_csv,
    write_micro_csv,
)
from copulasynth.bayesnet import BayesNet, Dag, family_score_mdl
from copulasynth.cli import main
from copulasynth.ipf import allocate
from copulasynth.metrics import marginal_report
from conftest import random_table

TABLE = random_table([2, 3], 40, seed=1)
EMPTY = MicroTable(TABLE.schema, np.zeros((0, 2), dtype=np.int64))
OTHER = random_table([2, 3], 40, seed=2, kinds=["categorical", "ordinal"])
CONFIG = SynthesisConfig(
    source_data="x", schema="x", method="independent", output_size=5, seed=0
)

# json.load's RecursionError on Python 3.10 to 3.13.
DEEP_JSON = (
    "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
)


def written(tmp_path, text):
    path = tmp_path / "input"
    path.write_text(text, "utf-8")
    return path


CASES = {
    "bayesnet_node_count": (
        lambda _: BayesNet(TABLE.schema, Dag(((),)), (np.full((1, 2), 0.5),)),
        "DAG, CPTs, and schema disagree on node count",
    ),
    "dag_parent_float": (
        lambda _: Dag(((), (0.7,))),
        "parent index 0.7 is not an integer",
    ),
    "dag_parent_string": (
        lambda _: Dag(((), ("0",))),
        "parent index '0' is not an integer",
    ),
    "dag_parent_bool": (
        lambda _: Dag(((), (True,))),
        "parent index True is not an integer",
    ),
    "score_empty": (
        lambda _: family_score_mdl(EMPTY, 0),
        "cannot score an empty table",
    ),
    "score_parent_range": (
        lambda _: family_score_mdl(TABLE, 0, (5,)),
        "parent 5 of node 0 out of range",
    ),
    "score_parent_twice": (
        lambda _: family_score_mdl(TABLE, 0, (1, 1)),
        "node 0 lists a parent twice",
    ),
    "score_parent_float": (
        lambda _: family_score_mdl(TABLE, 0, (1.5,)),
        "parent index 1.5 is not an integer",
    ),
    "score_parents_string": (
        lambda _: family_score_mdl(TABLE, 0, "1"),
        "parent index '1' is not an integer",
    ),
    "score_parents_none": (
        lambda _: family_score_mdl(TABLE, 0, None),
        "parents None are not a sequence",
    ),
    "score_node_float": (
        lambda _: family_score_mdl(TABLE, 0.0),
        "node 0.0 is not an integer",
    ),
    "score_node_bool": (
        lambda _: family_score_mdl(TABLE, True),
        "node True is not an integer",
    ),
    "structure_empty": (
        lambda _: learn_structure(EMPTY),
        "cannot learn structure from an empty table",
    ),
    "structure_seed_negative": (
        lambda _: learn_structure(TABLE, seed=-1),
        "seed must be an integer >= 0, got -1",
    ),
    "structure_seed_float": (
        lambda _: learn_structure(TABLE, seed=1.5),
        "seed must be an integer >= 0, got 1.5",
    ),
    "structure_seed_string": (
        lambda _: learn_structure(TABLE, seed="x"),
        "seed must be an integer >= 0, got 'x'",
    ),
    "structure_max_parents_none": (
        lambda _: learn_structure(TABLE, max_parents=None),
        "max_parents must be an integer >= 0, got None",
    ),
    "structure_max_parents_float": (
        lambda _: learn_structure(TABLE, max_parents=1.5),
        "max_parents must be an integer >= 0, got 1.5",
    ),
    "structure_max_parents_bool": (
        lambda _: learn_structure(TABLE, max_parents=True),
        "max_parents must be an integer >= 0, got True",
    ),
    "fit_empty": (
        lambda _: fit_parameters(EMPTY, Dag(((), ()))),
        "cannot fit parameters on an empty table",
    ),
    "fit_alpha": (
        lambda _: fit_parameters(TABLE, Dag(((), ())), alpha=-0.5),
        "alpha must be >= 0",
    ),
    "fit_node_count": (
        lambda _: fit_parameters(TABLE, Dag(((),))),
        "DAG and data disagree on node count",
    ),
    "sample_size": (
        lambda _: sample_bayesnet(
            fit_parameters(TABLE, Dag(((), ()))), -1, np.random.default_rng(0)
        ),
        "sample size must be >= 0",
    ),
    "micro_csv_empty": (
        lambda tmp: load_micro_csv(written(tmp, ""), TABLE.schema),
        "{path}: empty file, header row required",
    ),
    "marginals_csv_empty": (
        lambda tmp: load_marginals_csv(written(tmp, ""), TABLE.schema),
        "{path}: empty marginals file",
    ),
    "marginals_csv_count": (
        lambda tmp: load_marginals_csv(
            written(tmp, "variable,label,count\nv0,0,1.5\n"), TABLE.schema
        ),
        "{path}: row 1: count '1.5' is not an integer",
    ),
    "marginals_of_empty": (
        lambda _: marginals_of(EMPTY),
        "cannot take marginals of an empty table",
    ),
    "allocate_size": (
        lambda _: allocate(build_seed(TABLE), -1, np.random.default_rng(0)),
        "allocation size must be >= 0",
    ),
    "srmse_empty": (
        lambda _: srmse_by_size(EMPTY, TABLE, [1]),
        "cannot compare an empty table",
    ),
    "marginal_report_schemas": (
        lambda _: marginal_report(TABLE, OTHER, TABLE),
        "tables use different schemas",
    ),
    "evaluate_schemas": (
        lambda _: evaluate(TABLE, TABLE, OTHER),
        "tables use different schemas",
    ),
    "config_not_object": (
        lambda tmp: load_config(written(tmp, json.dumps([1, 2]))),
        "config must be a JSON object",
    ),
    "schema_nested_too_deeply": (
        lambda tmp: load_schema(written(tmp, "[" * 100_000 + "]" * 100_000)),
        "{path}: " + DEEP_JSON,
    ),
    "config_nested_too_deeply": (
        lambda tmp: load_config(written(tmp, "[" * 100_000 + "]" * 100_000)),
        "{path}: " + DEEP_JSON,
    ),
    "generate_schemas": (
        lambda _: generate_table(TABLE, marginals_of(OTHER), CONFIG, 0),
        "source and target marginals use different schemas",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_raise_site_names_its_fault(case, tmp_path):
    call, message = CASES[case]
    with pytest.raises(SynthesisError) as info:
        call(tmp_path)
    assert str(info.value) == message.format(path=tmp_path / "input")


def test_empty_training_table_scores_zero_frequencies(tmp_path):
    """A header-only training CSV loads as an empty table, and its marginal
    frequencies in the report are all zero."""
    path = tmp_path / "train.csv"
    write_micro_csv(EMPTY, path)
    train = load_micro_csv(path, TABLE.schema)
    assert train.n_rows == 0
    report = evaluate(TABLE, train, random_table([2, 3], 30, seed=3))
    for series, m in zip(report.marginal_series, TABLE.schema.dims):
        assert series.training == (0.0,) * m
        assert sum(series.reference) == pytest.approx(1.0)


def test_external_copula_names_variable_names_csv_refuses(monkeypatch):
    """Python 3.10's csv.writer refuses NUL; a variable name it refuses is a
    SynthesisError naming the variable names, raised before the external
    generator starts."""
    real = csv.writer

    class RefusesNul:
        def __init__(self, fh, **kwargs):
            self.writer = real(fh, **kwargs)

        def writerow(self, row):
            if any("\0" in str(field) for field in row):
                raise csv.Error("need to escape, but no escapechar set")
            return self.writer.writerow(row)

        def writerows(self, rows):
            return self.writer.writerows(rows)

    monkeypatch.setattr(csv, "writer", RefusesNul)
    schema = Schema((VariableSpec("x", ("0", "1")), VariableSpec("a\0b", ("0", "1"))))
    source = MicroTable(schema, np.array([[0, 1], [1, 0]]))
    config = SynthesisConfig(
        source_data="x", schema="x", method="external_copula", output_size=5,
        seed=0, external_command=("never-started",),
    )
    with pytest.raises(SynthesisError) as info:
        generate_table(source, marginals_of(source), config, 0)
    assert str(info.value) == (
        "variable names: cannot be written as CSV: "
        "need to escape, but no escapechar set"
    )


# JSON's "\\ud800" loads as a lone surrogate, which no output can encode.
@pytest.mark.parametrize(
    "raw, message",
    [
        (
            '{"v0": {"labels": ["0", "\\ud800"]}}',
            "variable 'v0': label '\\ud800' cannot be encoded as UTF-8",
        ),
        (
            '{"v\\udc80": {"labels": ["0"]}}',
            "variable 'v\\udc80': name 'v\\udc80' cannot be encoded as UTF-8",
        ),
    ],
    ids=["label", "name"],
)
def test_schema_text_utf8_cannot_encode_exits_one(tmp_path, capsys, raw, message):
    """A name or label UTF-8 cannot encode is a SynthesisError from
    load_schema, so synth exits 1 with one error line and writes nothing."""
    path = written(tmp_path, raw)
    with pytest.raises(SynthesisError) as info:
        load_schema(path)
    assert str(info.value) == message
    write_micro_csv(TABLE, tmp_path / "source.csv")
    write_marginals_csv(marginals_of(TABLE), tmp_path / "targets.csv")
    config = {
        "source_data": str(tmp_path / "source.csv"),
        "schema": str(path),
        "target_marginals": str(tmp_path / "targets.csv"),
        "method": "independent",
        "output_size": 5,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["synth", "--config", str(tmp_path / "config.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
