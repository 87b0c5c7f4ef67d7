"""Release gate: ten numbered end-to-end checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Tolerances and runtime caps are part of the contract; do not
loosen them to make a failing build green.
"""

import itertools
import time
from collections import Counter

import numpy as np
import pytest

from copulasynth import (
    MicroTable,
    SynthesisConfig,
    build_seed,
    evaluate,
    fit_ipf,
    generate_table,
    learn_structure,
    make_transfer_benchmark,
    marginals_of,
    run_permutation_study,
    srmse_projected,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from copulasynth.cli import main
from copulasynth.copula import ecdf, pseudo_inverse_many
from copulasynth.pipeline import rank_recode
from conftest import dag_edges, dense, make_schema, subset_srmse


def table_from_rows(dims, rows):
    return MicroTable(make_schema(dims), np.array(rows, dtype=np.int64))


def test_criterion_01_copula_roundtrip_is_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(20250818)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        dims = [int(rng.integers(2, 7)) for _ in range(d)]
        n = int(rng.integers(1, 2001))
        codes = np.column_stack([rng.integers(0, m, n) for m in dims])
        table = MicroTable(make_schema(dims), codes)
        recoded, marginals = rank_recode(table)
        targets = marginals_of(table)
        back = MicroTable(table.schema, np.column_stack([
            pseudo_inverse_many(targets.counts[i], ecdf(c)[recoded.column(i)])
            for i, c in enumerate(marginals.counts)
        ]))
        assert (back.codes == table.codes).all()
        assert back.schema == table.schema
    assert time.perf_counter() - start < 10.0


def test_criterion_02_marginal_injection_hits_targets():
    start = time.perf_counter()
    source, target = make_transfer_benchmark(
        seed=0, d=6, n_source=6000, n_target=6000, marginal_skew=0.5
    )
    targets = marginals_of(target)
    config = SynthesisConfig(
        source_data="unused", schema="unused", method="bn_copula",
        output_size=100_000, seed=1,
    )
    synthetic, _ = generate_table(source, targets, config, 1)
    for i in range(source.schema.d):
        wanted = targets.counts[i] / targets.counts[i].sum()
        got = np.bincount(synthetic.column(i), minlength=len(wanted))
        tv = 0.5 * np.abs(wanted - got / synthetic.n_rows).sum()
        assert tv <= 0.02
    assert time.perf_counter() - start < 60.0


def srmse_oracle(ref, syn, subset):
    def freqs(table):
        counter = Counter(map(tuple, table.codes[:, subset]))
        return {k: v / table.n_rows for k, v in counter.items()}

    p, q = freqs(ref), freqs(syn)
    cells = itertools.product(*(range(ref.schema.dims[i]) for i in subset))
    total = sum((p.get(c, 0.0) - q.get(c, 0.0)) ** 2 for c in cells)
    m = int(np.prod([ref.schema.dims[i] for i in subset]))
    return float(np.sqrt(m * total))


def test_criterion_03_srmse_matches_bruteforce_oracle():
    ref = table_from_rows([2], [[0]] * 5 + [[1]] * 5)
    syn = table_from_rows([2], [[0]] * 6 + [[1]] * 4)
    assert subset_srmse(ref, syn, [0]) == pytest.approx(0.2, abs=1e-12)
    assert subset_srmse(table_from_rows([2], [[0]] * 4),
                        table_from_rows([2], [[1]] * 4), [0]) == 2.0

    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        schema = make_schema(dims)
        n_a = int(rng.integers(5, 120))
        n_b = int(rng.integers(5, 120))
        a = MicroTable(schema, np.column_stack(
            [rng.integers(0, m, n_a) for m in dims]))
        b = MicroTable(schema, np.column_stack(
            [rng.integers(0, m, n_b) for m in dims]))
        size = int(rng.integers(1, d + 1))
        subset = sorted(rng.choice(d, size=size, replace=False).tolist())
        assert subset_srmse(a, b, subset) == pytest.approx(
            srmse_oracle(a, b, subset), abs=1e-12)
        projected = np.mean([
            srmse_oracle(a, b, list(s))
            for s in itertools.combinations(range(d), size)
        ])
        assert srmse_projected(a, b, size) == pytest.approx(
            projected, abs=1e-12)


def test_criterion_04_ipf_convergence_and_no_sampled_zeros(tmp_path):
    rows = [[0, 0]] + [[0, 1]] * 2 + [[1, 0]] * 3 + [[1, 1]] * 4
    seed = build_seed(table_from_rows([2, 2], rows))
    targets = marginals_of(MicroTable(
        seed.schema, np.array([[0, 0]] * 5 + [[1, 1]] * 5)))
    fitted = fit_ipf(seed, targets, tol=1e-12)
    assert fitted.max_deviation < 1e-8
    assert fitted.iterations <= 1000
    grid = dense(fitted)
    odds = (grid[0, 0] * grid[1, 1]) / (grid[0, 1] * grid[1, 0])
    assert odds == pytest.approx((1 * 4) / (2 * 3), abs=1e-6)

    zero_seed = build_seed(table_from_rows([2, 2], [[0, 0], [0, 0], [1, 1]]))
    refit = fit_ipf(zero_seed, targets, tol=1e-12)
    assert dense(refit)[0, 1] == 0.0 and dense(refit)[1, 0] == 0.0

    source, target = make_transfer_benchmark(
        seed=1, d=4, n_source=3000, n_target=3000, marginal_skew=0.5
    )
    config = SynthesisConfig(
        source_data="unused", schema="unused", method="ipf",
        output_size=20_000, seed=5,
    )
    synthetic, _ = generate_table(source, marginals_of(target), config, 5)
    assert evaluate(target, source, synthetic, exclude=()).sampled_zeros == 0


def test_criterion_05_structure_recovery_rates():
    start = time.perf_counter()

    def chain(seed, n=5000, p=0.9):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, n)
        b = np.where(rng.random(n) < p, a, 1 - a)
        c = np.where(rng.random(n) < p, b, 1 - b)
        return MicroTable(make_schema([2, 2, 2]), np.column_stack([a, b, c]))

    def independent(seed, n=5000):
        rng = np.random.default_rng(seed)
        return MicroTable(make_schema([2, 2, 2]), rng.integers(0, 2, (n, 3)))

    chain_hits = empty_hits = 0
    for s in range(100):
        skeleton = {
            tuple(sorted(e))
            for e in dag_edges(learn_structure(chain(s), max_parents=3, seed=s))
        }
        chain_hits += skeleton == {(0, 1), (1, 2)}
        edges = dag_edges(learn_structure(independent(s), max_parents=3, seed=s))
        empty_hits += len(edges) == 0
    assert chain_hits >= 95
    assert empty_hits >= 95
    assert time.perf_counter() - start < 120.0


def test_criterion_06_transfer_ordering_across_seeds():
    wins = 0
    for s in range(10):
        source, target = make_transfer_benchmark(
            seed=100 + s, d=6, n_source=6000, n_target=6000, marginal_skew=0.5
        )
        targets = marginals_of(target)
        scores = {}
        for method in ("bn_copula", "bn", "independent"):
            config = SynthesisConfig(
                source_data="unused", schema="unused", method=method,
                output_size=20_000, seed=1000 + s,
            )
            synthetic, _ = generate_table(source, targets, config, 1000 + s)
            scores[method] = srmse_projected(target, synthetic, 1)
        wins += (scores["bn_copula"] <= 0.2 * scores["bn"]
                 and scores["bn_copula"] <= scores["independent"])
    assert wins >= 9


def test_criterion_07_generative_method_reaches_unseen_combinations():
    source, _ = make_transfer_benchmark(
        seed=11, d=6, n_source=6000, n_target=6000, marginal_skew=0.5
    )
    n = source.n_rows
    train = MicroTable(
        source.schema,
        source.codes[np.sort(np.random.default_rng(3).permutation(n)[: n // 2])],
    )
    config = SynthesisConfig(
        source_data="unused", schema="unused", method="bn_copula",
        output_size=20_000, seed=21,
    )
    synthetic, _ = generate_table(train, marginals_of(train), config, 21)
    assert evaluate(source, train, synthetic, exclude=()).sampled_zeros > 0


def test_criterion_08_label_permutation_robustness(tmp_path):
    source, target = make_transfer_benchmark(
        seed=42, d=6, n_source=6000, n_target=6000, marginal_skew=0.5
    )
    _, reference = make_transfer_benchmark(
        seed=43, d=6, n_source=6000, n_target=6000, marginal_skew=0.5
    )
    write_schema(source.schema, tmp_path / "schema.json")
    write_micro_csv(source, tmp_path / "source.csv")
    write_micro_csv(reference, tmp_path / "reference.csv")
    write_marginals_csv(marginals_of(target), tmp_path / "targets.csv")
    config = SynthesisConfig(
        source_data=str(tmp_path / "source.csv"),
        schema=str(tmp_path / "schema.json"),
        target_marginals=str(tmp_path / "targets.csv"),
        reference_data=str(tmp_path / "reference.csv"),
        method="bn_copula", output_size=50_000, seed=99,
    )
    study = run_permutation_study(config, 20)
    cv = study.std[1] / study.mean[1]
    assert cv <= 0.15


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    source, target = make_transfer_benchmark(
        seed=7, d=4, n_source=1500, n_target=1500, marginal_skew=0.5
    )
    write_schema(source.schema, tmp_path / "schema.json")
    write_micro_csv(source, tmp_path / "source.csv")
    write_micro_csv(target, tmp_path / "reference.csv")
    write_marginals_csv(marginals_of(target), tmp_path / "targets.csv")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        "{"
        f'"source_data": "{tmp_path / "source.csv"}", '
        f'"schema": "{tmp_path / "schema.json"}", '
        f'"target_marginals": "{tmp_path / "targets.csv"}", '
        f'"reference_data": "{tmp_path / "reference.csv"}", '
        f'"output_dir": "{tmp_path / "out"}", '
        '"method": "bn_copula", "output_size": 3000, "seed": 13}'
    )
    assert main(["synth", "--config", str(config_path)]) == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("synthetic.csv", "report.json")
    }
    assert main(["synth", "--config", str(config_path)]) == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_criterion_10_zero_and_precision_oracles():
    pop = table_from_rows([4, 4], [[0, 0], [1, 1], [2, 2]])
    syn = table_from_rows([4, 4], [[1, 1], [2, 2], [3, 3]])
    report = evaluate(pop, pop, syn, pop, exclude=())
    assert (report.precision, report.recall) == (2 / 3, 2 / 3)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-15)

    rng = np.random.default_rng(424242)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        schema = make_schema(dims)

        def draw():
            n = int(rng.integers(1, 60))
            return MicroTable(schema, np.column_stack(
                [rng.integers(0, m, n) for m in dims]))

        train, ref, syn = draw(), draw(), draw()
        as_set = lambda t: set(map(tuple, t.codes))
        report = evaluate(ref, train, syn, ref, exclude=())
        assert report.sampled_zeros == len(
            as_set(syn) & (as_set(ref) - as_set(train)))
        assert report.structural_zeros == len(as_set(syn) - as_set(ref))
        hits = len(as_set(syn) & as_set(ref))
        p = hits / len(as_set(syn))
        r = hits / len(as_set(ref))
        assert report.precision == pytest.approx(p, abs=1e-15)
        assert report.recall == pytest.approx(r, abs=1e-15)
        expected_f1 = 2 * p * r / (p + r) if hits else 0.0
        assert report.f1 == pytest.approx(expected_f1, abs=1e-15)
