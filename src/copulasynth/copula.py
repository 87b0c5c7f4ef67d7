"""The copula transform: into the unit hypercube and back out.

In: ``rank_recode`` recodes each source column onto its observed support,
and ``ecdf`` gives each rank its column's empirical CDF, the cumulative
share of the per-category counts; the dependence is modelled there. Out:
``jitter_cells`` places a generated cell k uniformly inside its probability
interval (F(x^(k-1)), F(x^(k))], the continuous relaxation of the step
ECDF, so the uniforms are exactly uniform on (0,1] whenever cells follow
the source marginal. ``target_codes`` maps each column of uniforms through
the pseudo-inverse of a marginal (``pseudo_inverse_many``): an external
generator's uniforms through the source's, onto cells to jitter, and the
jittered uniforms through the (possibly different) target's.
"""

from __future__ import annotations

import numpy as np

from .dataset import MarginalTable, MicroTable, Schema, VariableSpec, code_dtype
from .dataset import count_below, integer_array, is_integer, marginals_of
from .errors import SynthesisError


def rank_recode(source: MicroTable) -> tuple[MicroTable, MarginalTable]:
    """Recode each column onto its observed support 0..k-1, with its counts.

    The recoding is strictly monotone per column, so dependence structure
    is untouched; the derived schema drops categories the sample never
    shows, so every recoded count is positive.
    """
    if source.n_rows == 0:
        raise SynthesisError("cannot fit an ECDF on an empty table")
    full = marginals_of(source)
    supports = [np.flatnonzero(c) for c in full.counts]
    ranks = np.empty_like(source.codes)
    derived = []
    for i, (var, support) in enumerate(zip(source.schema.variables, supports)):
        # A rank is below the support's size, at most m: the store cannot wrap.
        ranks[:, i] = np.searchsorted(support, source.column(i))
        labels = tuple(var.labels[c] for c in support)
        derived.append(VariableSpec(name=var.name, labels=labels, kind=var.kind))
    schema = Schema(tuple(derived))
    counts = tuple(c[s] for c, s in zip(full.counts, supports))
    return MicroTable(schema, ranks), MarginalTable(schema, counts)


def ecdf(counts) -> np.ndarray:
    """F at each category code: the cumulative share of per-category counts.

    A zero-count category repeats the value before it; the last value is
    exactly 1 because the last partial sum is the total.
    """
    arr = integer_array(counts, "counts").astype(np.int64, copy=False)
    if arr.ndim != 1 or arr.sum() <= 0:
        raise SynthesisError("counts must be a 1-d array with positive total")
    if (arr < 0).any():
        raise SynthesisError("negative count")
    return np.cumsum(arr) / arr.sum()


def jitter_cells(counts, cells, rng) -> np.ndarray:
    """A uniform draw in (F(x^(k-1)), F(x^(k))] per 0-based cell k; F(x^(-1)) is 0.

    Cells are ranks on the observed support, so every count must be positive.
    Each cell gathers its width from one table of F(x^(k)) - F(x^(k-1)) and
    its top from F; top - r * width is computed in the buffer of the draws r.
    """
    cum = ecdf(counts)
    if (np.asarray(counts) == 0).any():
        raise SynthesisError("jitter needs the counts of observed cells only")
    cells = integer_array(cells, "cells")
    if cells.size and (cells.min() < 0 or cells.max() >= len(cum)):
        raise SynthesisError(
            f"cell index outside 0..{len(cum) - 1}: "
            f"range [{cells.min()}, {cells.max()}]"
        )
    idx = cells.astype(np.intp, copy=False)
    u = rng.random(idx.shape)
    # idx is in range, so 'clip' clips nothing; it skips the buffered 'raise'.
    widths = np.diff(cum, prepend=0.0).take(idx, mode="clip")
    u *= widths
    return np.subtract(cum.take(idx, out=widths, mode="clip"), u, out=u)


def pseudo_inverse_many(counts, u) -> np.ndarray:
    """For each u, the smallest code whose cumulative probability reaches u.

    That code is the count of the ECDF's first m - 1 values below u, found
    by ``dataset.count_below`` on one row of those cuts, padded with inf to
    a power of two. A zero-count code repeats its predecessor's F, so it is
    never the smallest code reaching any u > 0.
    """
    cum = ecdf(counts)
    try:
        arr = np.asarray(u)
    except (TypeError, ValueError):
        raise SynthesisError("u values must lie in (0,1]") from None
    # Only real numbers are cast: a complex u would lose its imaginary part,
    # a string would be parsed, and a bool would count as 0 or 1.
    if arr.dtype.kind not in "iuf":
        raise SynthesisError("u values must lie in (0,1]")
    arr = arr.astype(np.float64, copy=False)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise SynthesisError("u values must lie in (0,1]")
    width = 1 << (len(cum) - 1).bit_length()
    cuts = np.full(width, np.inf)
    cuts[: len(cum) - 1] = cum[:-1]
    return count_below(cuts, width, arr)


def target_codes(targets: MarginalTable, n: int, uniforms) -> MicroTable:
    """Map column i's uniforms through target marginal i's pseudo-inverse.

    ``uniforms`` yields one length-n array per column, in column order, so
    only one column of floats needs to be alive at a time. Any other count
    of columns, or a column of another length, is a SynthesisError.
    """
    if not is_integer(n) or n < 0:
        raise SynthesisError(f"row count must be an integer >= 0, got {n!r}")
    schema = targets.schema
    codes = np.empty((n, schema.d), dtype=code_dtype(schema), order="F")
    given = 0
    for i, u in enumerate(uniforms):
        if i == schema.d:
            raise SynthesisError(f"more than {schema.d} columns of uniforms")
        # The count of cuts below u <= 1 is at most m - 1: the narrowing
        # store cannot wrap.
        column = pseudo_inverse_many(targets.counts[i], u)
        if column.shape != (n,):
            raise SynthesisError(
                f"column {i}: expected {n} uniforms, got shape {column.shape}"
            )
        codes[:, i] = column
        given = i + 1
        # Free this column's floats and codes before the next column's are
        # made: it lowers the peak RSS.
        del u, column
    if given < schema.d:
        raise SynthesisError(f"{given} columns of uniforms for {schema.d} variables")
    return MicroTable(schema, codes)
