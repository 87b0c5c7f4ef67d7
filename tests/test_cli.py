"""Exit codes, printed summaries, and file side effects of the CLI."""

import json

import pytest

from copulasynth import __version__, load_marginals_csv, load_schema
from copulasynth.cli import main
from copulasynth.dataset import (
    marginals_of,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth.pipeline import make_transfer_benchmark


@pytest.fixture()
def workspace(tmp_path):
    source, target = make_transfer_benchmark(
        seed=3, d=4, n_source=1200, n_target=1200, marginal_skew=0.5
    )
    write_schema(source.schema, tmp_path / "schema.json")
    write_micro_csv(source, tmp_path / "source.csv")
    write_micro_csv(target, tmp_path / "reference.csv")
    write_marginals_csv(marginals_of(target), tmp_path / "targets.csv")
    return tmp_path


def write_config(tmp_path, **overrides):
    fields = {
        "source_data": str(tmp_path / "source.csv"),
        "schema": str(tmp_path / "schema.json"),
        "target_marginals": str(tmp_path / "targets.csv"),
        "reference_data": str(tmp_path / "reference.csv"),
        "method": "bn_copula",
        "output_size": 1500,
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    fields.update(overrides)
    for key in [k for k, v in overrides.items() if v is None]:
        del fields[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return path


def summary_keys(stdout):
    return [line.split()[0] for line in stdout.splitlines() if line.strip()]


def test_synth_writes_outputs_and_summary(workspace, capsys):
    cfg = write_config(workspace)
    assert main(["synth", "--config", str(cfg)]) == 0
    out = capsys.readouterr()
    keys = summary_keys(out.out)
    assert keys == ["srmse_1", "srmse_2", "srmse_3", "srmse_4",
                    "sampled_zeros", "structural_zeros",
                    "precision", "recall", "f1"]
    for name in ("synthetic.csv", "report.json", "marginals.csv"):
        assert (workspace / "out" / name).exists()
    assert "notice:" not in out.out


def test_synth_outputs_are_reproducible(workspace):
    cfg = write_config(workspace)
    main(["synth", "--config", str(cfg)])
    blobs = {
        name: (workspace / "out" / name).read_bytes()
        for name in ("synthetic.csv", "report.json", "marginals.csv")
    }
    main(["synth", "--config", str(cfg)])
    for name, blob in blobs.items():
        assert (workspace / "out" / name).read_bytes() == blob


def test_synth_notice_when_marginals_omitted(workspace, capsys):
    for target_marginals in (None, "from-source"):
        cfg = write_config(workspace, target_marginals=target_marginals)
        assert main(["synth", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "notice: no target marginals configured" in out


def test_synth_missing_config_file(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_synth_malformed_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["synth", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "override",
    [
        {"output_size": "100"},
        {"output_size": True},
        {"seed": -1},
        {"schema": None},
        {"output_dir": 5},
        {"reference_data": 3},
        {"exclude_variables": "v0"},
        {"external_command": 5},
        {"reference_data": ""},
        {"population_data": ""},
        {"output_dir": ""},
        {"target_marginals": ""},
    ],
)
def test_synth_mistyped_config_exits_one(workspace, capsys, override):
    cfg = write_config(workspace)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **override}))
    assert main(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert next(iter(override)) in err
    assert not (workspace / "out").exists()


def test_synth_short_source_row_exits_one(workspace, capsys):
    with open(workspace / "source.csv", "a") as handle:
        handle.write("0,1\n")
    assert main(["synth", "--config", str(write_config(workspace))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "source.csv: line 1202" in err


def test_evaluate_happy_path(workspace, capsys):
    args = ["evaluate",
            "--ref", str(workspace / "reference.csv"),
            "--syn", str(workspace / "source.csv"),
            "--schema", str(workspace / "schema.json")]
    assert main(args) == 0
    keys = summary_keys(capsys.readouterr().out)
    assert keys[:4] == ["srmse_1", "srmse_2", "srmse_3", "srmse_4"]


def test_evaluate_schema_mismatch_names_variable(workspace, capsys):
    bad = workspace / "bad_syn.csv"
    bad.write_text("v0,v1,v2,v3\n9,0,0,0\n")
    args = ["evaluate",
            "--ref", str(workspace / "reference.csv"),
            "--syn", str(bad),
            "--schema", str(workspace / "schema.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "v0" in err


def test_marginals_subcommand(workspace, capsys):
    out = workspace / "m.csv"
    args = ["marginals", "--data", str(workspace / "source.csv"),
            "--schema", str(workspace / "schema.json"), "--out", str(out)]
    assert main(args) == 0
    assert "1200 rows" in capsys.readouterr().out
    schema = load_schema(workspace / "schema.json")
    loaded = load_marginals_csv(out, schema)
    assert loaded.total(0) == 1200


def test_permute_study_prints_table(workspace, capsys):
    cfg = write_config(workspace, output_size=800)
    assert main(["permute-study", "--config", str(cfg), "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "mean", "std"]
    assert len(lines) == 5  # header + sizes 1..4
    assert lines[1].split()[0] == "1"


def test_permute_study_domain_error(workspace, capsys):
    cfg = write_config(workspace, method="ipf")
    assert main(["permute-study", "--config", str(cfg), "--n", "2"]) == 1
    assert "bn_copula" in capsys.readouterr().err


def test_benchmark_subcommand(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["benchmark", "--out", str(out), "--seed", "5"]) == 0
    for name in ("schema.json", "source.csv", "target.csv",
                 "target_marginals.csv"):
        assert (out / name).exists()
    assert "6000 source rows" in capsys.readouterr().out
    schema = load_schema(out / "schema.json")
    assert schema.d == 9


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
