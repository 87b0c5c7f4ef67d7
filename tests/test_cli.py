"""Exit codes, printed summaries, and file side effects of the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from copulasynth import (
    SynthesisConfig,
    __version__,
    load_marginals_csv,
    load_schema,
)
from copulasynth.cli import main
from copulasynth.dataset import (
    marginals_of,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth.pipeline import GENERATORS, make_transfer_benchmark


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


def set_labels(value):
    def corrupt(path):
        doc = json.loads(path.read_text())
        doc["v0"]["labels"] = value
        path.write_text(json.dumps(doc))

    return corrupt


def append_bytes(blob):
    def corrupt(path):
        with open(path, "ab") as handle:
            handle.write(blob)

    return corrupt


@pytest.mark.parametrize(
    "name, corrupt",
    [
        pytest.param("schema.json", set_labels(5), id="labels-int"),
        pytest.param("schema.json", set_labels("abc"), id="labels-string"),
        pytest.param("source.csv", append_bytes(b"0,\xff,0,0\n"), id="csv-0xff"),
        pytest.param("targets.csv", append_bytes(b"v0,\xff,3\n"), id="marginals-0xff"),
        pytest.param("config.json", append_bytes(b"\xff"), id="config-0xff"),
        pytest.param(
            "source.csv", append_bytes(b"x" * 140_000 + b"\n"), id="csv-long-field"
        ),
        pytest.param(
            "targets.csv",
            append_bytes(b"v0," + b"x" * 140_000 + b",3\n"),
            id="marginals-long-field",
        ),
    ],
)
def test_synth_unreadable_input_exits_one_naming_the_file(
    workspace, capsys, name, corrupt
):
    cfg = write_config(workspace)
    corrupt(workspace / name)
    assert main(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert name in err
    assert not (workspace / "out").exists()


def replace_v0_counts(rows):
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if not ln.startswith("v0,")]
        path.write_text("".join(kept) + "".join(f"v0,{r}\n" for r in rows))

    return corrupt


@pytest.mark.parametrize(
    "overrides, corrupt, message",
    [
        pytest.param(
            # python -c leaves sys.argv as ["-c", "--n", n, "--seed", s]
            {"method": "external_copula", "external_command": [
                sys.executable, "-c",
                "import sys; print('nan,0.5,0.5,0.5\\n' * int(sys.argv[2]))",
            ]},
            None, r"must lie in \(0,1\]", id="nan-generator",
        ),
        pytest.param(
            {}, replace_v0_counts(["0,100000000000000000000"]),
            r"targets\.csv: row \d+: count exceeds", id="count-1e20",
        ),
        pytest.param(
            {}, replace_v0_counts(["0,5000000000000000000", "1,5000000000000000000"]),
            r"targets\.csv: row \d+: count exceeds", id="counts-5e18",
        ),
        pytest.param(
            {}, replace_v0_counts([f"0,{2**53}", f"1,{2**53}"]),
            r"'v0': total exceeds", id="total-2x2**53",
        ),
        pytest.param(
            {"output_size": 10**30}, None, "output_size", id="output-size-1e30"
        ),
    ],
)
def test_synth_out_of_range_input_exits_one(
    workspace, capsys, overrides, corrupt, message
):
    cfg = write_config(workspace, **overrides)
    if corrupt is not None:
        corrupt(workspace / "targets.csv")
    assert main(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert re.search(message, err), err
    assert not (workspace / "out").exists()


def test_synth_accepts_utf8_byte_order_mark(workspace):
    """Excel's "CSV UTF-8" prefixes the file with a byte-order mark."""
    cfg = write_config(workspace)
    for name in ("config.json", "schema.json", "source.csv", "targets.csv"):
        path = workspace / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["synth", "--config", str(cfg)]) == 0


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """File name -> bytes of a small synth workspace."""
    path = tmp_path_factory.mktemp("small")
    source, target = make_transfer_benchmark(seed=2, d=3, n_source=200, n_target=200)
    write_schema(source.schema, path / "schema.json")
    write_micro_csv(source, path / "source.csv")
    write_micro_csv(target, path / "reference.csv")
    write_marginals_csv(marginals_of(target), path / "targets.csv")
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SynthesisConfig))
# Short text, weighted toward characters that paths and shell splitting treat
# specially.
TEXT = st.text(st.sampled_from("a/.'\" \\\x00\n") | st.characters(), max_size=6)
FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-10, 10) | st.just(math.nan),
    TEXT,
    st.sampled_from(GENERATORS + ("from-source", "v0", "v1", "v2")),
    st.lists(TEXT | st.sampled_from(["v0", "v1"]), max_size=3),
)
# Drawn commands never name a program that exists: a missing path with
# text after it, split shell-style or listed, or a generator that exits 1.
COMMANDS = st.one_of(
    FIELD_VALUES.filter(lambda v: not isinstance(v, (str, list))),
    TEXT.map(lambda t: "/nonexistent/gen " + t),
    st.lists(TEXT, max_size=2).map(lambda a: ["/nonexistent/gen"] + a),
    st.just([sys.executable, "-c", "raise SystemExit(1)"]),
)
# Only output_size draws a size past any addressable table: max_iter would
# loop for that long.
VALUES_OF = {
    "external_command": COMMANDS,
    "output_size": FIELD_VALUES | st.just(10**30),
}
OVERRIDES = st.sampled_from(CONFIG_FIELDS + ("bogus",)).flatmap(
    lambda k: st.tuples(st.just(k), VALUES_OF.get(k, FIELD_VALUES))
)
# A marginals row whose count breaks the 2**53 bound, appended at the end.
HUGE_COUNT_ROWS = st.sampled_from([2**53 + 1, 5 * 10**18, 10**20]).map(
    lambda c: ("targets.csv", -1, f"v0,0,{c}\r\n".encode())
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    overrides=st.lists(OVERRIDES, max_size=3),
    dropped=st.sets(st.sampled_from(CONFIG_FIELDS), max_size=2),
    splice=st.none()
    | st.tuples(
        st.sampled_from(["schema.json", "source.csv", "reference.csv", "targets.csv"]),
        st.integers(0, 10**6),
        st.binary(min_size=1, max_size=8),
    )
    | HUGE_COUNT_ROWS,
)
def test_synth_fuzzed_config_and_inputs_exit_zero_or_one(
    small_inputs, capsys, monkeypatch, overrides, dropped, splice
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        monkeypatch.chdir(tmp)  # relative output paths land in the temporary dir
        files = dict(small_inputs)
        if splice is not None:
            name, pos, blob = splice
            pos %= len(files[name]) + 1  # -1 appends
            files[name] = files[name][:pos] + blob + files[name][pos:]
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        doc = {
            "source_data": str(tmp / "source.csv"),
            "schema": str(tmp / "schema.json"),
            "target_marginals": str(tmp / "targets.csv"),
            "reference_data": str(tmp / "reference.csv"),
            "population_data": str(tmp / "reference.csv"),
            "method": "bn_copula",
            "output_size": 30,
            "seed": 1,
            "output_dir": "out",
        }
        doc.update(overrides)
        for name in dropped:
            doc.pop(name, None)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["synth", "--config", str(cfg)])
        err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


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


def test_benchmark_negative_seed_exits_one(tmp_path, capsys):
    assert main(["benchmark", "--out", str(tmp_path / "bench"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "seed" in err


NUMPY_ONLY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from copulasynth.cli import main
out = sys.argv[1]
assert main(["benchmark", "--out", out, "--seed", "4"]) == 0
config = {
    "source_data": out + "/source.csv",
    "schema": out + "/schema.json",
    "target_marginals": out + "/target_marginals.csv",
    "reference_data": out + "/target.csv",
    "method": "bn_copula",
    "output_size": 800,
    "seed": 2,
    "output_dir": out + "/run",
}
with open(out + "/config.json", "w") as handle:
    json.dump(config, handle)
assert main(["synth", "--config", out + "/config.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_benchmark_and_synth_run_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # only the None placeholder set above: no scipy module was loaded
    assert proc.stdout.splitlines()[-1] == "['scipy']"
    assert (tmp_path / "run" / "synthetic.csv").exists()


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
