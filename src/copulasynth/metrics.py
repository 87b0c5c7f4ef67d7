"""Accuracy, diversity, and feasibility metrics for synthetic microdata.

SRMSE compares relative combination frequencies between a reference and a
synthetic table over variable subsets: srmse_projected walks the subsets
and srmse scores each one from the tables' shared keys. Zeros and
precision/recall work on distinct combinations after projecting out
excluded variables (high-card ordinal variables by default, which
otherwise flood the zero counts): distinct_combos turns the tables into
aligned masks of the combinations each holds, and sampled_zeros,
structural_zeros and precision_recall_f1 are arithmetic on those masks.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import MicroTable, Schema
from .errors import SynthesisError


# Combination keys may range over this many values per counted row before
# they are re-ranked densely, so a bincount over them stays a few words per
# row however many categories the columns have.
_KEY_RANGE_PER_ROW = 4

# evaluate scores SRMSE projections of sizes 1..min(MAX_PROJECTION, d).
MAX_PROJECTION = 5


def extend_keys(keys, span, columns, m, budget=None):
    """Append one column of m categories to each key array's mixed-radix key.

    Keys lie in 0..span-1 and compare across the arrays. When the new range
    would pass the budget, which defaults to _KEY_RANGE_PER_ROW per key,
    the keys are re-ranked jointly by np.unique. The re-rank keeps their
    order and brings the range down to the number of distinct keys, so a
    range never exceeds budget * m and a key cannot overflow int64.
    """
    if budget is None:
        budget = _KEY_RANGE_PER_ROW * sum(k.size for k in keys)
    keys = [k * m + c for k, c in zip(keys, columns)]
    span *= m
    if span > budget:
        uniq, rank = np.unique(np.concatenate(keys), return_inverse=True)
        keys = np.split(rank, np.cumsum([k.size for k in keys[:-1]]))
        span = uniq.size
    return keys, span


def combo_keys(arrays, dims, columns, budget=None):
    """Each (N, d) code array's row keys over the columns, first most significant.

    ``dims`` are the category counts of the d columns. Returns one int64
    key array per code array and the key range. Keys compare across the
    arrays, and ascending keys follow the lexicographic order of the
    combinations. The range stays within the budget (see extend_keys);
    keys that are never re-ranked equal np.ravel_multi_index's.
    """
    keys, span = [np.zeros(len(a), dtype=np.int64) for a in arrays], 1
    for c in columns:
        keys, span = extend_keys(keys, span, [a[:, c] for a in arrays], dims[c], budget)
    return keys, span


def srmse(keys, span, n_ref: int, n_syn: int, m_product: int) -> float:
    """sqrt(M * sum((pi - pihat)^2)) of one subset, from both tables' keys over it.

    M is the product of the subset's schema cardinalities. Combinations
    seen in neither table contribute zero and are never enumerated; the
    squares are summed over the others in ascending key order, so the
    float sum does not depend on the key range.
    """
    ref_counts, syn_counts = (np.bincount(k, minlength=span) for k in keys)
    seen = (ref_counts + syn_counts) > 0
    p = ref_counts[seen] / n_ref
    q = syn_counts[seen] / n_syn
    return math.sqrt(m_product * float(((p - q) ** 2).sum()))


def srmse_projected(ref: MicroTable, syn: MicroTable, n: int) -> float:
    """Arithmetic mean of srmse over all size-n variable subsets.

    Subsets are taken in itertools.combinations order. Each one extends
    the keys of the prefix it shares with the previous subset, so most
    subsets cost one multiply-add and one bincount per table.
    """
    d = ref.schema.d
    if not 1 <= n <= d:
        raise SynthesisError(f"projection size {n} outside 1..{d}")
    if ref.schema != syn.schema:
        raise SynthesisError("reference and synthetic tables use different schemas")
    if ref.n_rows == 0 or syn.n_rows == 0:
        raise SynthesisError("cannot compare an empty table")
    dims = ref.schema.dims
    tables = (ref, syn)
    # Each column is read once per subset that ends in it: copy it out of
    # the row-major table once, which halves the time of the reads.
    columns = [[np.ascontiguousarray(t.column(i)) for t in tables] for i in range(d)]
    # prefixes[k]: the keys and range over the first k variables of `previous`
    prefixes = [([np.zeros(t.n_rows, dtype=np.int64) for t in tables], 1)]
    previous: tuple[int, ...] = ()
    values = []
    for subset in itertools.combinations(range(d), n):
        shared = next(
            (k for k, (a, b) in enumerate(zip(subset, previous)) if a != b), 0
        )
        del prefixes[shared + 1 :]
        for c in subset[shared:]:
            prefixes.append(extend_keys(*prefixes[-1], columns[c], dims[c]))
        m_product = math.prod(dims[c] for c in subset)
        values.append(srmse(*prefixes[-1], ref.n_rows, syn.n_rows, m_product))
        previous = subset
    return float(np.mean(values))


def default_exclusion(schema: Schema) -> tuple[str, ...]:
    """Ordinal variables with more than 20 categories (age-like columns)."""
    return tuple(
        v.name for v in schema.variables if v.kind == "ordinal" and v.n_categories > 20
    )


def _kept_indices(schema: Schema, exclude) -> tuple[int, ...]:
    exclude = tuple(exclude) if exclude is not None else ()
    for name in exclude:
        if name not in schema.names:
            raise SynthesisError(f"unknown excluded variable '{name}'")
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
    keys, span = combo_keys([t.codes for t in distinct], distinct[0].schema.dims, kept)
    seen = {id(t): np.bincount(k, minlength=span) > 0 for t, k in zip(distinct, keys)}
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
        warnings.warn("empty synthetic table: precision undefined, reporting 0")
        return 0.0, 0.0, 0.0
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
    if not (ref.schema == train.schema == syn.schema) or (
        population is not None and population.schema != ref.schema
    ):
        raise SynthesisError("tables use different schemas")
    if exclude is None:
        exclude = default_exclusion(ref.schema)
    srmse_by_n = {
        n: srmse_projected(ref, syn, n)
        for n in range(1, min(MAX_PROJECTION, ref.schema.d) + 1)
    }
    kept = _kept_indices(ref.schema, exclude)
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
