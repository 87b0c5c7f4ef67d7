"""Accuracy, diversity, and feasibility metrics for synthetic microdata.

SRMSE compares relative combination frequencies between a reference and a
synthetic table over variable subsets: srmse_by_size counts blocks of
variables once, cuts every subset's table out of them by axis sums in one
walk over all projection sizes, and squares each block's differences in
one pass, from which srmse scores each subset. Zeros and precision/recall
work on distinct combinations after projecting out excluded variables
(high-card ordinal variables by default, which otherwise flood the zero
counts): distinct_combos turns the tables into aligned masks of the
combinations each holds, and sampled_zeros, structural_zeros and
precision_recall_f1 are arithmetic on those masks.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .dataset import MicroTable, Schema
from .errors import SynthesisError


# A block table holds at most one cell per this many counted rows (reference
# plus synthetic); each cell holds both tables' counts. Wider blocks key and
# count fewer column sets but take more axis sums per subset, which only the
# removal-path stack in srmse_by_size shares. Walk times, min of interleaved
# calls on 2 cores, d=14 at 10k + 10k rows / d=20 at 10k + 150k rows: 16
# without the stack 65 / 932 ms, 8 without it 64 / 1014 ms, 16 with it
# 65 / 664 ms, 8 with it 57 / 616 ms. 6 and 4 walked d=14 up to 5% faster
# than 8, but evaluate then traced 2.8-2.9 synthetic tables, past the 2.5
# that tests/test_memory.py allows.
_ROWS_PER_BLOCK_CELL = 8

# evaluate scores SRMSE projections of sizes 1..min(MAX_PROJECTION, d).
MAX_PROJECTION = 5


def srmse(squares, m_product: int) -> float:
    """sqrt(M * sum(squares)) of one subset, M the product of its cardinalities.

    ``squares`` are the (pi - pihat)^2 of the combinations seen in either
    table, in lexicographic order: a slice of srmse_by_size's contiguous
    per-block array, which np.add.reduce sums exactly as a fresh copy.
    """
    return math.sqrt(m_product * float(np.add.reduce(squares)))


def _cover(dims, top: int, budget: int, dense_limit: int):
    """Blocks of columns whose tables hold every size-``top`` subset once.

    Each block starts from the first subset no earlier block holds and
    greedily adds the column that brings in the most such subsets while
    the product stays within the budget (or within the subset's own
    product, if that is larger). A subset past the dense limit is a block
    of its own. Returns (block, subsets) pairs, the subsets being those
    the block holds first; each block lists its columns in ascending order.
    """
    powers = [1 << c for c in range(len(dims))]

    def masks(columns, k):  # the bit mask of each k-subset of the columns
        return list(map(sum, itertools.combinations([powers[c] for c in columns], k)))

    plan, covered = [], set()  # covered: the bit masks of the subsets held
    everything = range(len(dims))
    for subset, mask in zip(
        itertools.combinations(everything, top), masks(everything, top)
    ):
        if mask in covered:
            continue
        block, m = list(subset), math.prod(dims[c] for c in subset)
        cap = max(budget, m) if m <= dense_limit else 0
        # gain[c]: the subsets not yet held that column c would bring in. It
        # grows by the block's new (top-1)-subsets as each column joins.
        gain = dict.fromkeys(everything, 0)
        fresh = masks(block, top - 1)
        while True:
            for c in [c for c in gain if c in block or m * dims[c] > cap]:
                del gain[c]
            if not gain:
                break
            for c in gain:
                gain[c] += sum(r | powers[c] not in covered for r in fresh)
            best = max(gain, key=gain.get)
            if not gain[best]:
                break
            fresh = [r | powers[best] for r in masks(block, top - 2)] if top > 1 else []
            block.append(best)
            m *= dims[best]
        block.sort()
        held = masks(block, top)
        covers = itertools.combinations(block, top)
        inner = [s for s, k in zip(covers, held) if k not in covered]
        plan.append((tuple(block), inner))
        covered.update(held)
    return sorted(plan)  # in column order, neighbours share long key prefixes


def _sum_out(table, axis):
    """The table summed over one axis, by einsum over a (before, m, after) view.

    np.add.reduce runs one short inner loop per leading cell when the axis
    is near the end of a small table: 15-30 us against einsum's 4-7 us on
    a d=14 block's table (numpy 2.4, 2 cores), though it is as fast on
    leading axes (the walk's one-axis sums). Counts are integers, so both
    give the same table.
    """
    shape = table.shape
    before = math.prod(shape[:axis])
    summed = np.einsum("amb->ab", table.reshape(before, shape[axis], -1))
    return summed.reshape(shape[:axis] + shape[axis + 1 :])


def _stacked(tables):
    """A column function giving column c of the tables end to end.

    Every call fills the one shared buffer, which set_keys reads before it
    asks for the next column.
    """
    codes = [t.codes for t in tables]
    buffer = np.empty(sum(map(len, codes)), np.result_type(*codes))
    return lambda c: np.concatenate([a[:, c] for a in codes], out=buffer)


def _check_tables(**tables) -> None:
    """A SynthesisError unless each table is a MicroTable, named by its role."""
    for role, table in tables.items():
        dataset.check_type(table, MicroTable, f"{role} table")


def srmse_by_size(ref: MicroTable, syn: MicroTable, sizes) -> dict[int, float]:
    """Arithmetic mean of srmse over all variable subsets of each size.

    One walk serves every size. The rows of both tables are keyed as one
    array. The subsets of the largest size are counted in blocks of columns
    (see _cover), keyed by one dataset.set_keys walk; the counts of a
    block's reference and synthetic keys (dataset.count_keys), stacked on
    a last axis, give a dense (cells..., 2) table. Its subsets, sorted by
    the block columns they remove, take their tables from it along a
    removal path: a stack of the tables with a prefix of those columns
    summed out, each subset popping back to the prefix it shares with the
    previous one and summing out only the columns after it. Each smaller
    subset S takes its table from S plus the smallest column not in S by a
    one-axis sum, depth first. A subset whose product passes
    dataset.KEY_RANGE_PER_ROW per row is counted over re-ranked keys, and
    its children on their own. Counts are integers and tables list cells
    in lexicographic order, like keys, so scores do not depend on the
    route. One pass per block turns its scored tables into squared
    differences, and srmse sums each subset's slice; one block, its
    removal path, one walk path and the block's scored tables are alive at
    a time. The mean runs over the scores in itertools.combinations order.
    """
    _check_tables(reference=ref, synthetic=syn)
    d = ref.schema.d
    sizes = dataset.as_tuple(sizes, "projection sizes")
    for n in sizes:
        if not dataset.is_integer(n):
            raise SynthesisError(f"projection size {n!r} is not an integer")
        if not 1 <= n <= d:
            raise SynthesisError(f"projection size {n} outside 1..{d}")
    if ref.schema != syn.schema:
        raise SynthesisError("reference and synthetic tables use different schemas")
    if ref.n_rows == 0 or syn.n_rows == 0:
        raise SynthesisError("cannot compare an empty table")
    if not sizes:
        return {}
    sizes, dims = tuple(map(int, sizes)), ref.schema.dims
    n_ref, n_syn, low = ref.n_rows, syn.n_rows, min(sizes)
    rows = n_ref + n_syn
    dense_limit = dataset.KEY_RANGE_PER_ROW * rows
    both = _stacked((ref, syn))
    scores: dict[tuple[int, ...], float] = {}
    scored = []  # (subset, M, table) of the block's scored subsets

    def counted(keys, span, subset):
        """Both tables' counts, (cells..., 2): dense unless the keys were re-ranked."""
        cells = tuple(dims[c] for c in subset)
        shape = (span,) if math.prod(cells) > dense_limit else cells
        tables = [dataset.count_keys(k, span) for k in (keys[:n_ref], keys[n_ref:])]
        return np.stack(tables, axis=-1).reshape(shape + (2,))

    def walk(subset, counts, m_product):
        if len(subset) in sizes:
            scored.append((subset, m_product, counts))
        if len(subset) == low:
            return
        # The children of S are S minus one of its leading columns 0..k-1.
        for i in range(len(subset)):
            if subset[i] != i:
                break
            child, m = subset[:i] + subset[i + 1 :], m_product // dims[i]
            if m_product > dense_limit:
                ((_, keys, span),) = dataset.set_keys([child], dims, both, rows)
                walk(child, counted(keys, span, child), m)
            else:
                walk(child, np.add.reduce(counts, axis=i), m)

    def score_block():
        counts = np.concatenate([t for *_, t in scored], axis=None)
        ref_counts, syn_counts = counts[0::2], counts[1::2]
        seen = ref_counts + syn_counts > 0
        squares = ((ref_counts / n_ref - syn_counts / n_syn) ** 2)[seen]
        # Integer counts of each table's seen cells: reduceat is exact here.
        starts = itertools.accumulate([t.size // 2 for *_, t in scored[:-1]], initial=0)
        held = np.add.reduceat(seen, list(starts), dtype=np.intp).tolist()
        start = 0
        for (subset, m_product, _), k in zip(scored, held):
            scores[subset] = srmse(squares[start : start + k], m_product)
            start += k
        scored.clear()

    plan = _cover(dims, max(sizes), rows // _ROWS_PER_BLOCK_CELL, dense_limit)
    blocks = dataset.set_keys([block for block, _ in plan], dims, both, rows)
    for (block, keys, span), (_, inner) in zip(blocks, plan):
        # stack: (removed columns, table) pairs along one removal path, from
        # the block's own table down. Sorted by the columns they remove,
        # subsets that share a removed prefix share its tables, and each
        # sums out only the columns past that prefix, one axis at a time.
        stack = [((), counted(keys, span, block))]
        for removed, subset in sorted(
            (tuple(c for c in block if c not in s), s) for s in inner
        ):
            while removed[: len(stack[-1][0])] != stack[-1][0]:
                stack.pop()
            prefix, table = stack[-1]
            for c in removed[len(prefix) :]:
                table = _sum_out(table, block.index(c) - len(prefix))
                prefix += (c,)
                stack.append((prefix, table))
            walk(subset, table, math.prod(dims[c] for c in subset))
        del stack, table  # the path's unscored tables go before the scoring pass
        score_block()
    return {
        n: float(np.mean([scores[s] for s in itertools.combinations(range(d), n)]))
        for n in sizes
    }


def srmse_projected(ref: MicroTable, syn: MicroTable, n: int) -> float:
    """Arithmetic mean of srmse over all size-n variable subsets."""
    return srmse_by_size(ref, syn, (n,))[n]


def default_exclusion(schema: Schema) -> tuple[str, ...]:
    """Ordinal variables with more than 20 categories (age-like columns)."""
    return tuple(
        v.name for v in schema.variables if v.kind == "ordinal" and v.n_categories > 20
    )


def kept_indices(schema: Schema, exclude) -> tuple[int, ...]:
    """The columns left after the exclusion list (None: default_exclusion)."""
    if isinstance(exclude, str):  # would exclude its characters
        raise SynthesisError(f"excluded variables {exclude!r} are a string, not a list")
    try:
        exclude = default_exclusion(schema) if exclude is None else tuple(exclude)
    except TypeError:
        raise SynthesisError(f"excluded variables {exclude!r} are not a list") from None
    for name in exclude:
        if name not in schema.names:
            raise SynthesisError(f"unknown excluded variable {name!r}")
    kept = tuple(i for i, v in enumerate(schema.variables) if v.name not in exclude)
    if not kept:
        raise SynthesisError("empty projection: every variable is excluded")
    return kept


def distinct_combos(tables, kept) -> list[np.ndarray]:
    """Which joint keys over the kept columns occur in each table, as masks.

    The tables are keyed together, so the masks line up and zero counts
    and precision/recall are arithmetic on them. A table passed more than
    once (the population may be the source) is keyed once.
    """
    distinct = list({id(t): t for t in tables}.values())
    dims, rows = distinct[0].schema.dims, [t.n_rows for t in distinct]
    ((_, keys, span),) = dataset.set_keys([kept], dims, _stacked(distinct), sum(rows))
    seen = {}
    for t, k in zip(distinct, np.split(keys, np.cumsum(rows[:-1]))):
        seen[id(t)] = mask = np.zeros(span, bool)
        for block in dataset.row_blocks(k.size):  # the index cast is a block long
            mask[k[block]] = True
    return [seen[id(t)] for t in tables]


def sampled_zeros(train_seen, ref_seen, syn_seen) -> int:
    """Synthetic combinations present in the reference but absent from training."""
    return int(np.count_nonzero(syn_seen & ref_seen & ~train_seen))


def structural_zeros(syn_seen, population_seen) -> int:
    """Synthetic combinations that exist nowhere in the population."""
    return int(np.count_nonzero(syn_seen & ~population_seen))


def precision_recall_f1(syn_seen, population_seen) -> tuple[float, float, float]:
    """Distinct-combination precision/recall against the population, plus F1."""
    n_population = int(np.count_nonzero(population_seen))
    if not n_population:
        raise SynthesisError("population table is empty")
    n_syn = int(np.count_nonzero(syn_seen))
    if not n_syn:
        raise SynthesisError("synthetic table is empty")
    hit = int(np.count_nonzero(syn_seen & population_seen))
    precision = hit / n_syn
    recall = hit / n_population
    f1 = 2 * precision * recall / (precision + recall) if hit else 0.0
    return precision, recall, f1


@dataclass(frozen=True, eq=False)
class MarginalSeries:
    """Aligned per-category frequencies of one variable across three tables."""

    variable: str
    labels: tuple[str, ...]
    reference: tuple[float, ...]
    training: tuple[float, ...]
    synthetic: tuple[float, ...]


def marginal_report(
    ref: MicroTable, train: MicroTable, syn: MicroTable
) -> tuple[MarginalSeries, ...]:
    """Per-variable relative frequencies of reference, training, synthetic."""
    _check_tables(reference=ref, training=train, synthetic=syn)
    if not (ref.schema == train.schema == syn.schema):
        raise SynthesisError("tables use different schemas")
    schema = ref.schema

    def freqs(table: MicroTable, i: int) -> tuple[float, ...]:
        if table.n_rows == 0:
            return tuple(0.0 for _ in range(schema.dims[i]))
        counts = np.bincount(table.column(i), minlength=schema.dims[i])
        return tuple(float(c) / table.n_rows for c in counts)

    return tuple(
        MarginalSeries(
            variable=v.name,
            labels=v.labels,
            reference=freqs(ref, i),
            training=freqs(train, i),
            synthetic=freqs(syn, i),
        )
        for i, v in enumerate(schema.variables)
    )


def write_marginal_csv(series: tuple[MarginalSeries, ...], path) -> None:
    """Tidy long-format export: variable,category,series,frequency."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["variable", "category", "series", "frequency"])
        for s in series:
            for name, values in (
                ("reference", s.reference),
                ("training", s.training),
                ("synthetic", s.synthetic),
            ):
                for label, freq in zip(s.labels, values):
                    writer.writerow([s.variable, label, name, repr(freq)])


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Bundle of all metrics for one synthesis run."""

    srmse_by_n: dict
    sampled_zeros: int
    structural_zeros: int
    precision: float
    recall: float
    f1: float
    marginal_series: tuple[MarginalSeries, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.precision > 0 and self.recall > 0:
            expected = 2 * self.precision * self.recall / (self.precision + self.recall)
            if abs(self.f1 - expected) > 1e-12:
                raise SynthesisError("f1 is not the harmonic mean of precision/recall")
        elif self.f1 != 0.0:
            raise SynthesisError("f1 must be 0 when precision or recall is 0")
        object.__setattr__(self, "warnings", tuple(self.warnings))


def evaluate(
    ref: MicroTable,
    train: MicroTable,
    syn: MicroTable,
    population: MicroTable | None = None,
    exclude=None,
) -> EvaluationReport:
    """Compute the full report for one synthetic table.

    Zeros and precision/recall use the exclusion list (default: ordinal
    variables with more than 20 categories); SRMSE projections run over
    n = 1..min(MAX_PROJECTION, d) with no exclusion. Without a population,
    the combinations of train and ref together stand for it.
    """
    _check_tables(reference=ref, training=train, synthetic=syn)
    if population is not None:
        _check_tables(population=population)
    if not (ref.schema == train.schema == syn.schema) or (
        population is not None and population.schema != ref.schema
    ):
        raise SynthesisError("tables use different schemas")
    kept = kept_indices(ref.schema, exclude)
    srmse_by_n = srmse_by_size(
        ref, syn, range(1, min(MAX_PROJECTION, ref.schema.d) + 1)
    )
    tables = (train, ref, syn) + (() if population is None else (population,))
    train_seen, ref_seen, syn_seen, *given = distinct_combos(tables, kept)
    pop_seen = given[0] if given else train_seen | ref_seen
    precision, recall, f1 = precision_recall_f1(syn_seen, pop_seen)
    return EvaluationReport(
        srmse_by_n=srmse_by_n,
        sampled_zeros=sampled_zeros(train_seen, ref_seen, syn_seen),
        structural_zeros=structural_zeros(syn_seen, pop_seen),
        precision=precision,
        recall=recall,
        f1=f1,
        marginal_series=marginal_report(ref, train, syn),
    )


def report_to_json(report: EvaluationReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["srmse_by_n"] = {str(n): v for n, v in doc["srmse_by_n"].items()}
    return doc
