"""Input checks that end in SynthesisError, each with its own message."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from copulasynth import (
    MarginalTable,
    MicroTable,
    Schema,
    SynthesisConfig,
    SynthesisError,
    VariableSpec,
    build_seed,
    evaluate,
    fit_ipf,
    fit_parameters,
    generate_table,
    learn_structure,
    load_config,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    make_transfer_benchmark,
    marginals_of,
    sample_bayesnet,
    srmse_by_size,
    write_marginals_csv,
    write_micro_csv,
)
from copulasynth.bayesnet import BayesNet, Dag, family_score_mdl
from copulasynth.cli import main
from copulasynth.copula import cells_to_targets, codes_by_block, jitter_cells, rank_recode
from copulasynth.dataset import new_codes
from copulasynth.ipf import ContingencyTable, allocate
from copulasynth.pipeline import run_permutation_study
from copulasynth.metrics import kept_indices, marginal_report
from conftest import random_table

TABLE = random_table([2, 3], 40, seed=1)
EMPTY = MicroTable(TABLE.schema, np.zeros((0, 2), dtype=np.int64))
OTHER = random_table([2, 3], 40, seed=2, kinds=["categorical", "ordinal"])
CONFIG = SynthesisConfig(
    source_data="x", schema="x", method="independent", output_size=5, seed=0
)
TWO_ROOTS = Dag(((), ()))
BN_COPULA = dataclasses.replace(CONFIG, method="bn_copula")
TARGETS = marginals_of(TABLE)
HALF = lambda i, block: np.full(block.stop - block.start, 0.5)
CODES_REFUSED = "codes must be an owning, column-major (n, 2) uint8 array"

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
    "bayesnet_schema_not_a_schema": (
        lambda _: BayesNet(5, TWO_ROOTS, ()),
        "schema must be a Schema, got 5",
    ),
    "bayesnet_dag_not_a_dag": (
        lambda _: BayesNet(TABLE.schema, 5, ()),
        "dag must be a Dag, got 5",
    ),
    "micro_table_schema_not_a_schema": (
        lambda _: MicroTable(5, [[0]]),
        "schema must be a Schema, got 5",
    ),
    "marginal_table_schema_not_a_schema": (
        lambda _: MarginalTable(5, ()),
        "schema must be a Schema, got 5",
    ),
    "contingency_table_cells_not_a_table": (
        lambda _: ContingencyTable(5, [1.0]),
        "cells must be a MicroTable, got 5",
    ),
    "variable_name_not_a_string": (
        lambda _: VariableSpec(5, ("0", "1")),
        "variable name must be a string, got 5",
    ),
    "bayesnet_cpts_not_a_sequence": (
        lambda _: BayesNet(TABLE.schema, TWO_ROOTS, 5),
        "CPTs 5 are not a sequence",
    ),
    "bayesnet_cpt_ragged": (
        lambda _: BayesNet(TABLE.schema, TWO_ROOTS, ([[0.5, 0.5], [1]], [[1, 0, 0]])),
        "CPT of node 0 must be a rectangular array of numbers",
    ),
    "bayesnet_cpt_strings": (
        lambda _: BayesNet(TABLE.schema, TWO_ROOTS, ([["a", "b"]], [[1, 0, 0]])),
        "CPT of node 0 must be numbers, got dtype <U1",
    ),
    "dag_not_a_sequence": (
        lambda _: Dag(5),
        "parent sets 5 are not a sequence",
    ),
    "dag_none": (
        lambda _: Dag(None),
        "parent sets None are not a sequence",
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
    "fit_alpha_string": (
        lambda _: fit_parameters(TABLE, Dag(((), ())), alpha="a"),
        "alpha must be a finite number, got 'a'",
    ),
    "fit_alpha_nan": (
        lambda _: fit_parameters(TABLE, Dag(((), ())), alpha=float("nan")),
        "alpha must be a finite number, got nan",
    ),
    "fit_alpha_overflows": (
        lambda _: fit_parameters(TABLE, Dag(((), ())), alpha=1e308),
        "alpha 1e+308 times 3 categories is not a finite number",
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
    "sample_size_float": (
        lambda _: sample_bayesnet(
            fit_parameters(TABLE, Dag(((), ()))), 2.5, np.random.default_rng(0)
        ),
        "sample size 2.5 is not an integer",
    ),
    "sample_size_bool": (
        lambda _: sample_bayesnet(
            fit_parameters(TABLE, Dag(((), ()))), True, np.random.default_rng(0)
        ),
        "sample size True is not an integer",
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
    "schema_not_a_sequence": (
        lambda _: Schema(5),
        "schema variables 5 are not a sequence",
    ),
    "schema_variable_not_a_spec": (
        lambda _: Schema(["a"]),
        "schema variable 'a' is not a VariableSpec",
    ),
    "variable_labels_a_string": (
        lambda _: VariableSpec("sex", "MF"),
        "variable 'sex': labels 'MF' are a string, not a list",
    ),
    "variable_labels_not_a_sequence": (
        lambda _: VariableSpec("a", 5),
        "variable 'a': labels 5 are not a sequence",
    ),
    "micro_table_ragged": (
        lambda _: MicroTable(TABLE.schema, [[0, 0], [0]]),
        "category codes must be a rectangular array of integers",
    ),
    "marginal_table_no_counts": (
        lambda _: MarginalTable(TABLE.schema, ()),
        "expected 2 count arrays, one per variable, got 0",
    ),
    "marginal_table_extra_counts": (
        lambda _: MarginalTable(TABLE.schema, ([1, 1], [1, 1, 1], [1, 1, 1])),
        "expected 2 count arrays, one per variable, got 3",
    ),
    "marginal_table_not_a_sequence": (
        lambda _: MarginalTable(TABLE.schema, 5),
        "marginal counts 5 are not a sequence",
    ),
    "contingency_table_strings": (
        lambda _: ContingencyTable(TABLE, ["a"] * TABLE.n_rows),
        "cell weights must be numbers, got dtype <U1",
    ),
    "marginals_of_empty": (
        lambda _: marginals_of(EMPTY),
        "cannot take marginals of an empty table",
    ),
    "allocate_size": (
        lambda _: allocate(build_seed(TABLE), -1, np.random.default_rng(0)),
        "allocation size must be >= 0",
    ),
    "allocate_size_float": (
        lambda _: allocate(build_seed(TABLE), 2.5, np.random.default_rng(0)),
        "allocation size 2.5 is not an integer",
    ),
    "ipf_max_iter_float": (
        lambda _: fit_ipf(build_seed(TABLE), marginals_of(TABLE), max_iter=2.5),
        "max_iter 2.5 is not an integer",
    ),
    "ipf_tol_nan": (
        lambda _: fit_ipf(build_seed(TABLE), marginals_of(TABLE), tol=float("nan")),
        "tol must be a finite number, got nan",
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
    "evaluate_reference_none": (
        lambda _: evaluate(None, TABLE, TABLE),
        "reference table must be a MicroTable, got None",
    ),
    "evaluate_population_list": (
        lambda _: evaluate(TABLE, TABLE, TABLE, [1]),
        "population table must be a MicroTable, got [1]",
    ),
    "srmse_synthetic_list": (
        lambda _: srmse_by_size(TABLE, [1], (1,)),
        "synthetic table must be a MicroTable, got [1]",
    ),
    "marginal_report_training_none": (
        lambda _: marginal_report(TABLE, None, TABLE),
        "training table must be a MicroTable, got None",
    ),
    "evaluate_exclude_string": (
        lambda _: evaluate(TABLE, TABLE, TABLE, exclude="v0"),
        "excluded variables 'v0' are a string, not a list",
    ),
    "kept_indices_not_iterable": (
        lambda _: kept_indices(TABLE.schema, 5),
        "excluded variables 5 are not a list",
    ),
    "config_alpha_past_float_range": (
        lambda _: dataclasses.replace(CONFIG, alpha=2**1024),
        f"alpha must be a finite number, got {2**1024!r}",
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
    "generate_seed_negative": (
        lambda _: generate_table(TABLE, marginals_of(TABLE), CONFIG, -1),
        "seed must be an integer >= 0, got -1",
    ),
    "generate_seed_float": (
        lambda _: generate_table(TABLE, marginals_of(TABLE), CONFIG, 1.5),
        "seed must be an integer >= 0, got 1.5",
    ),
    "permutation_count_float": (
        lambda _: run_permutation_study(BN_COPULA, 2.5),
        "permutation count 2.5 is not an integer",
    ),
    "permutation_count_bool": (
        lambda _: run_permutation_study(BN_COPULA, True),
        "permutation count True is not an integer",
    ),
    "permutation_count_string": (
        lambda _: run_permutation_study(BN_COPULA, "2"),
        "permutation count '2' is not an integer",
    ),
    "benchmark_seed_float": (
        lambda _: make_transfer_benchmark(seed=1.5),
        "benchmark seed must be an integer, got 1.5",
    ),
    "benchmark_d_float": (
        lambda _: make_transfer_benchmark(d=2.5),
        "benchmark d must be an integer, got 2.5",
    ),
    "benchmark_n_source_float": (
        lambda _: make_transfer_benchmark(n_source=2.5),
        "benchmark n_source must be an integer, got 2.5",
    ),
    "benchmark_skew_string": (
        lambda _: make_transfer_benchmark(marginal_skew="a"),
        "marginal_skew must be a finite number, got 'a'",
    ),
    "sample_rng_int": (
        lambda _: sample_bayesnet(fit_parameters(TABLE, TWO_ROOTS), 10, 5),
        "rng must be a Generator, got 5",
    ),
    "sample_rng_none": (
        lambda _: sample_bayesnet(fit_parameters(TABLE, TWO_ROOTS), 10, None),
        "rng must be a Generator, got None",
    ),
    "jitter_rng_int": (
        lambda _: jitter_cells([3, 4], np.array([0, 1]), 5),
        "rng must be a Generator, got 5",
    ),
    "allocate_rng_int": (
        lambda _: allocate(build_seed(TABLE), 10, 5),
        "rng must be a Generator, got 5",
    ),
    "codes_by_block_read_only_view": (
        lambda _: codes_by_block(TARGETS, HALF, TABLE.codes[:3]),
        CODES_REFUSED,
    ),
    "codes_by_block_one_dimensional": (
        lambda _: codes_by_block(TARGETS, HALF, np.zeros(4, np.uint8)),
        CODES_REFUSED,
    ),
    "codes_by_block_too_few_columns": (
        lambda _: codes_by_block(TARGETS, HALF, np.zeros((4, 1), np.uint8, order="F")),
        CODES_REFUSED,
    ),
    "codes_by_block_row_major": (
        lambda _: codes_by_block(TARGETS, HALF, np.zeros((4, 2), np.uint8)),
        CODES_REFUSED,
    ),
    "codes_by_block_other_dtype": (
        lambda _: codes_by_block(TARGETS, HALF, np.zeros((4, 2), np.int64, order="F")),
        CODES_REFUSED,
    ),
    "codes_by_block_uniforms_short": (
        lambda _: codes_by_block(
            TARGETS, lambda i, block: np.full(3, 0.5), new_codes(TABLE.schema, 4)
        ),
        "uniforms(0, slice(0, 4, None)) gave shape (3,), not (4,)",
    ),
    "codes_by_block_uniforms_not_callable": (
        lambda _: codes_by_block(TARGETS, 5, new_codes(TABLE.schema, 4)),
        "uniforms must be a function, got 5",
    ),
    "marginals_of_none": (
        lambda _: marginals_of(None),
        "table must be a MicroTable, got None",
    ),
    "rank_recode_none": (
        lambda _: rank_recode(None),
        "source must be a MicroTable, got None",
    ),
    "structure_data_none": (
        lambda _: learn_structure(None),
        "data must be a MicroTable, got None",
    ),
    "fit_data_none": (
        lambda _: fit_parameters(None, TWO_ROOTS),
        "data must be a MicroTable, got None",
    ),
    "fit_dag_none": (
        lambda _: fit_parameters(TABLE, None),
        "dag must be a Dag, got None",
    ),
    "sample_bn_none": (
        lambda _: sample_bayesnet(None, 10, np.random.default_rng(0)),
        "bn must be a BayesNet, got None",
    ),
    "build_seed_none": (
        lambda _: build_seed(None),
        "table must be a MicroTable, got None",
    ),
    "ipf_seed_none": (
        lambda _: fit_ipf(None, TARGETS),
        "seed must be a ContingencyTable, got None",
    ),
    "ipf_targets_none": (
        lambda _: fit_ipf(build_seed(TABLE), None),
        "targets must be a MarginalTable, got None",
    ),
    "allocate_fitted_none": (
        lambda _: allocate(None, 10, np.random.default_rng(0)),
        "fitted must be a ContingencyTable, got None",
    ),
    "generate_source_none": (
        lambda _: generate_table(None, TARGETS, CONFIG, 0),
        "source must be a MicroTable, got None",
    ),
    "generate_targets_none": (
        lambda _: generate_table(TABLE, None, CONFIG, 0),
        "targets must be a MarginalTable, got None",
    ),
    "generate_config_none": (
        lambda _: generate_table(TABLE, TARGETS, None, 0),
        "config must be a SynthesisConfig, got None",
    ),
    "cells_to_targets_cells_none": (
        lambda _: cells_to_targets(None, TARGETS, TARGETS, np.random.default_rng(0)),
        "cells must be a ndarray, got None",
    ),
    "cells_to_targets_source_none": (
        lambda _: cells_to_targets(TABLE.codes, None, TARGETS, np.random.default_rng(0)),
        "source must be a MarginalTable, got None",
    ),
    "cells_to_targets_targets_none": (
        lambda _: cells_to_targets(TABLE.codes, TARGETS, None, np.random.default_rng(0)),
        "targets must be a MarginalTable, got None",
    ),
    "cells_to_targets_rng_none": (
        lambda _: cells_to_targets(TABLE.codes, TARGETS, TARGETS, None),
        "rng must be a Generator, got None",
    ),
    "cells_to_targets_one_dimensional": (
        lambda _: cells_to_targets(
            TABLE.codes[:, 0], TARGETS, TARGETS, np.random.default_rng(0)
        ),
        "cells of shape (40,) on 2 source marginals: expected (n, 2) on 2",
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
