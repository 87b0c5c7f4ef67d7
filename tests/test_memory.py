"""Generation holds one (n, d) table plus a row block's scratch.

Every producer fills the array its MicroTable keeps, and the copula exit
writes target codes over the sampled ranks, so the memory that
generate_table traces beyond its output's codes must not grow with the row
count. external_copula's payload is written a block at a time, so it
does not grow with the source either, and evaluate holds a few synthetic
tables. The gates read tracemalloc, not the clock.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from copulasynth import SynthesisConfig, SynthesisError, evaluate, generate_table
from copulasynth import dataset, make_transfer_benchmark, marginals_of, pipeline
from copulasynth.copula import rank_recode

GENERATOR = Path(__file__).resolve().parent / "resample_generator.py"
METHODS = (
    "bn", "bn_copula", "independent", "independent_copula", "ipf", "external_copula"
)


def traced_extra(source, targets, method, n):
    """Traced peak bytes of generate_table beyond its output's codes.

    external_copula's generator sends all n rows of uniforms as text, and
    _run_external parses them whole; for that method tracing starts once
    they are parsed.
    """
    cfg = SynthesisConfig(
        source_data="x", schema="x", method=method, output_size=n, seed=3,
        external_command=(sys.executable, str(GENERATOR)),
    )
    run_external = pipeline._run_external

    def parse_then_trace(*args):
        values = run_external(*args)
        tracemalloc.start()
        return values

    with pytest.MonkeyPatch.context() as m:
        if method == "external_copula":
            m.setattr(pipeline, "_run_external", parse_then_trace)
        else:
            tracemalloc.start()
        try:
            syn, _ = generate_table(source, targets, cfg, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak - syn.codes.nbytes, syn.codes.nbytes


@pytest.mark.parametrize("method", METHODS)
def test_generation_memory_does_not_grow_with_rows(monkeypatch, method):
    """Tripling n adds two tables of output and less than a tenth of that
    in anything else; a second copy of the table would add all of it. The
    row block is cut to 1,024 rows, so its scratch is smaller than a table
    and cannot hide a copy."""
    monkeypatch.setattr(dataset, "ROW_BLOCK", 1 << 10)
    source, target = make_transfer_benchmark(seed=5, d=4, n_source=500, n_target=500)
    targets = marginals_of(target)
    traced_extra(source, targets, method, 100)  # one-time allocations
    extra, table = traced_extra(source, targets, method, 20_000)
    extra3, table3 = traced_extra(source, targets, method, 60_000)
    assert table3 == 3 * table
    assert extra3 - extra < 0.1 * (table3 - table), (extra, extra3, table)


def test_bn_copula_holds_one_table_and_block_scratch():
    """At d=20 and 100,000 rows the table is 2 MB. Beside it sampling and
    the exit hold a row block's scratch, about four float64 arrays of
    ROW_BLOCK values, 1 MB: 1.5 tables in all. A first untraced call takes
    the path's one-time allocations, so the gate reads the same run alone
    as in the suite."""
    source, target = make_transfer_benchmark(seed=1, d=20, n_source=2000, n_target=2000)
    targets = marginals_of(target)
    traced_extra(source, targets, "bn_copula", 100_000)  # one-time allocations
    extra, table = traced_extra(source, targets, "bn_copula", 100_000)
    assert (table + extra) / table < 1.6, (extra, table)


def traced_payload(n_rows):
    """Traced peak bytes of _run_external on a d=20 source of n_rows rows, with
    its rank table's bytes; the generator exits without reading stdin."""
    source, _ = make_transfer_benchmark(seed=1, d=20, n_source=n_rows, n_target=10)
    data, marginals = rank_recode(source)
    command = (sys.executable, "-c", "import sys; sys.exit(3)")
    tracemalloc.start()
    try:
        with pytest.raises(SynthesisError, match="exited with code 3"):
            pipeline._run_external(command, data, marginals, 10, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, data.codes.nbytes


def test_external_payload_memory_does_not_grow_with_rows():
    """The payload is written a block at a time: tripling the source adds
    less traced memory than it adds rank-table bytes."""
    traced_payload(10_000)  # one-time allocations
    peak, table = traced_payload(10_000)
    peak3, table3 = traced_payload(30_000)
    assert peak3 - peak < table3 - table, (peak, peak3, table, table3)


def test_evaluate_memory_is_bounded_in_synthetic_tables():
    """evaluate on 100,000 bn_copula rows at d=12 traces 2.38 synthetic
    tables on its first call (2.27 warm). The SRMSE walk sets that peak: a
    block's key prefixes, its table, the tables on one descent path and
    its scored tables. Blocks of one cell per 4 counted rows score more
    subsets per pass than blocks of one per 8 did; the scoring pass drops
    the scored tables once it has concatenated them, and their counts
    before it gathers the seen differences. The walk counts keys and
    distinct_combos marks them a row block at a time, and re-ranking
    writes narrow ranks, so no step widens a whole key array to intp. The
    gate holds it under 2.5."""
    source, target = make_transfer_benchmark(seed=1, d=12, n_source=3000, n_target=3000)
    cfg = SynthesisConfig(
        source_data="x", schema="x", method="bn_copula", output_size=100_000, seed=1
    )
    syn, _ = generate_table(source, marginals_of(target), cfg, 1)
    tracemalloc.start()
    try:
        evaluate(target, source, syn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / syn.codes.nbytes < 2.5, (peak, syn.codes.nbytes)
