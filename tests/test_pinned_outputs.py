"""Every method's output bytes, pinned on checked-in fixtures.

The fixtures under tests/data are a 240-row source, a 200-row reference
and the reference's marginals over five benchmark-style variables and a
25-category ordinal `age` (excluded from zeros and precision/recall by
default). They are checked in rather than drawn with
make_transfer_benchmark, whose Cholesky factor goes through BLAS.

A change that means to alter an output updates its digest here in the
same commit and says why. The digests assume numpy's Generator streams
are stable, so a failure names the numpy release it ran under.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from copulasynth import (
    MarginalTable,
    MicroTable,
    Schema,
    SynthesisConfig,
    VariableSpec,
    evaluate,
    generate_table,
    load_micro_csv,
    load_schema,
    make_transfer_benchmark,
    marginals_of,
    run_experiment,
    run_permutation_study,
)

DATA = Path(__file__).resolve().parent / "data"
GENERATOR = Path(__file__).resolve().parent / "resample_generator.py"
NUMPY = f"numpy {np.__version__}"

# sha256 of synthetic.csv, report.json and marginals.csv per method.
DIGESTS = {
    "independent": (
        "bf6d5ab192591d7711a2c649122a18659989e0f7280966c13b9b470ca809f2b5",
        "51edb9dc0d5000b372ab4a8faad8aa463ca4eebc62f13ae5f107e4e28a2533a0",
        "ef2703f87f8d628efa284e926aa340a56ff66f784fa6ccd9eecdecefea246c06",
    ),
    "independent_copula": (
        "c169bf332974cc2dcdda9fbb55e8e492f2f8320123812d2e6f5568c5417340c0",
        "890ccf41e68ebe3a4ff7fbf139c0ea9a4b6db29aff3ea01ce509d85b9d4f2ef7",
        "9a0a1365acdc4421d8ed6c90341a480187eaca4343940421bc632c1344ebfb9a",
    ),
    "ipf": (
        "3fc51c258457001d7058d6f4f4acb270776ecf453810d62edf4bc785f80e90f3",
        "766aa13b68df378a4ad9a3f15731836d88fba186618d18de7040e3f220427a85",
        "bf6a716193f4571c42324a84f7ca34fbe9a9e79f98cd1a04f15b42fd01934d87",
    ),
    "bn": (
        "6261f05f49a72a9bdddd57b1123c3283a7d0cfd81fe762c857d555945de208e7",
        "b0b20fb0ba0d4fc9645886b5e570120a3347a3f4baad78fc7f8abb02a06615bc",
        "0852968d4cc014a749c6f8e600206ce3cd2a0aca14782e47e141ca7c5b1ec483",
    ),
    "bn_copula": (
        "efb57301c275e4ca5f19678f1a1cb84caf1422c67560e603c08f95fcadd6cf3f",
        "9d98f2917a4c4cb17c2ec32433e8eb73922b521886fedf0aeef9076be7c635a1",
        "d18761f3652e7902f553f1d9ad8925627802584e2efa01261227bbce93cd565c",
    ),
    "external_copula": (
        "cbdb7a1471d26ad9675b04bea27fa97fc25009ea57ac9eb38a41c5e1e1dd2465",
        "41997e4736893e416a7dcc83bf8b5cf625d88137dafcafdde28c9ca3e5c969b3",
        "4c4b96803d81a59faa6874c46569db67bc3a6d48274f336cc7ce0927eac15179",
    ),
}

EVALUATE_SRMSE = (
    "{1: 0.3776654363133158, 2: 0.731607001366574, 3: 1.2748190348775683, "
    "4: 2.178907345707849, 5: 3.750284405817592}"
)
EVALUATE_DIGEST = "c134ef76b650a0539852c3191efea60745c6175ad8b5cd4a2c1e699dbc1cbaf7"
PERMUTATION_VALUES = (
    "{1: (0.1257831645342936, 0.1565658449043259), "
    "2: (0.435495868927126, 0.4536175285503666), "
    "3: (0.9754842790545762, 0.9790962750950977), "
    "4: (1.8885505372072988, 1.8990615457122861), "
    "5: (3.475904389610386, 3.5381347547127806)}"
)

# sha256 of the bn_copula codes at d=20 (see test_bn_copula_d20_codes_are_pinned).
D20_DIGEST = "88e36435f34870dee45775e9a952f3e57b20659c24d43d9441d1d15c146e14dd"

# sha256 of the codes at a 300-category variable (see test_large_m_codes_are_pinned).
LARGE_M_DIGESTS = {
    "independent_copula": "344df51f1c73503f515c686dbed20703a534611404a88f04a51617059fb7a58f",
    "bn_copula": "07e90eb555cd853f272da8564fcca6159aa239408d373d006db352f2f6383321",
}

# sha256 of the bn_copula codes over three row blocks (see
# test_codes_across_row_blocks_are_pinned), taken before generation ran in
# row blocks.
ROW_BLOCKS_DIGEST = "6fe46e45b846b6b62ce94be9c922f225d6d0425e714685b6c647490ee4a0af89"


def config(method, **overrides):
    fields = {
        "source_data": str(DATA / "source.csv"),
        "schema": str(DATA / "schema.json"),
        "target_marginals": str(DATA / "targets.csv"),
        "reference_data": str(DATA / "reference.csv"),
        "method": method,
        "output_size": 300,
        "seed": 7,
    }
    if method == "external_copula":
        fields["external_command"] = (sys.executable, str(GENERATOR))
    fields.update(overrides)
    return SynthesisConfig(**fields)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("method", sorted(DIGESTS))
def test_run_outputs_are_pinned(tmp_path, method):
    run_experiment(config(method, output_dir=str(tmp_path)))
    files = ("synthetic.csv", "report.json", "marginals.csv")
    got = tuple(sha256(tmp_path / name) for name in files)
    assert got == DIGESTS[method], NUMPY


def test_evaluate_is_pinned():
    schema = load_schema(DATA / "schema.json")
    source = load_micro_csv(DATA / "source.csv", schema)
    reference = load_micro_csv(DATA / "reference.csv", schema)
    report = evaluate(reference, source, source)
    assert repr(report.srmse_by_n) == EVALUATE_SRMSE, NUMPY
    assert hashlib.sha256(repr(report).encode()).hexdigest() == EVALUATE_DIGEST, NUMPY


def test_permutation_study_is_pinned():
    study = run_permutation_study(config("bn_copula", output_size=200), 2)
    assert repr(study.values) == PERMUTATION_VALUES, NUMPY


def test_bn_copula_d20_codes_are_pinned():
    """A larger shape than the fixtures: the search scores families of up to
    three parents over cardinalities 2 to 4, and 20,000 rows are sampled.
    make_transfer_benchmark's Cholesky factor goes through BLAS, so a
    failure here alone may also name a LAPACK build."""
    source, target = make_transfer_benchmark(seed=0, d=20, n_source=10_000)
    cfg = SynthesisConfig(
        source_data="unused", schema="unused", method="bn_copula",
        output_size=20_000, seed=0,
    )
    synthetic, _ = generate_table(source, marginals_of(target), cfg, 0)
    codes = np.ascontiguousarray(synthetic.codes)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == D20_DIGEST, NUMPY


def large_m_tables():
    """A 3,000-row source over a 300-category variable and three small ones,
    with targets that hold zero counts first, last and in runs.

    The source shows 225 of the 300 categories, so its ranks run past 128,
    and the target's pseudo-inverse searches 299 cuts.
    """
    schema = Schema(
        tuple(
            VariableSpec(f"v{i}", tuple(str(j) for j in range(m)))
            for i, m in enumerate((300, 3, 7, 2))
        )
    )
    rng = np.random.default_rng(22)
    n = 3_000
    v0 = rng.integers(0, 300, n) ** 2 // 300  # skewed low, gaps at the top
    v1 = (v0 // 100 + rng.integers(0, 2, n)) % 3
    v2 = rng.integers(0, 7, n)
    v3 = (v2 > 3) ^ (rng.random(n) < 0.1)
    source = MicroTable(schema, np.column_stack([v0, v1, v2, v3]))
    wide = rng.integers(0, 50, 300)
    wide[:3] = wide[100:140] = wide[297:] = 0
    counts = (wide, [0, 40, 60], [5, 0, 0, 9, 3, 0, 4], [7, 3])
    return source, MarginalTable(schema, counts)


@pytest.mark.parametrize("method", sorted(LARGE_M_DIGESTS))
def test_large_m_codes_are_pinned(method):
    """The fixture and d=20 pins have at most 25 categories a variable; this
    one runs the copula exit over 300, with zero-count target categories."""
    source, targets = large_m_tables()
    cfg = SynthesisConfig(
        source_data="unused", schema="unused", method=method,
        output_size=20_000, seed=0,
    )
    synthetic, _ = generate_table(source, targets, cfg, 0)
    codes = np.ascontiguousarray(synthetic.codes)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == LARGE_M_DIGESTS[method], NUMPY


def test_codes_across_row_blocks_are_pinned():
    """The other pins generate at most 20,000 rows, within one row block of
    32,768; 70,001 rows take three, the last one ragged, through sampling,
    the jitter and both pseudo-inverses."""
    source, targets = large_m_tables()
    cfg = SynthesisConfig(
        source_data="unused", schema="unused", method="bn_copula",
        output_size=70_001, seed=0,
    )
    synthetic, _ = generate_table(source, targets, cfg, 0)
    codes = np.ascontiguousarray(synthetic.codes)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == ROW_BLOCKS_DIGEST, NUMPY
