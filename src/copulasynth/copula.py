"""The copula transform: into the unit hypercube and back out.

In: ``rank_recode`` recodes each source column onto its observed support,
and ``ecdf`` gives each rank its column's empirical CDF, the cumulative
share of the per-category counts; the dependence is modelled there. Out:
``cells_to_targets`` is the one exit from generated cells to target codes.
``jitter_cells`` places a generated cell k uniformly inside its probability
interval (F(x^(k-1)), F(x^(k))], the continuous relaxation of the step
ECDF, so the uniforms are exactly uniform on (0,1] whenever cells follow
the source marginal, and ``codes_by_block`` maps them through the
pseudo-inverse of the (possibly different) target marginal
(``pseudo_inverse_many``). An external generator's uniforms reach source
cells the same way, through the source's marginal.

``codes_by_block`` is the one uniforms -> codes loop. It asks
``uniforms(i, block)`` for column i's uniforms one row block at a time
(``row_blocks``) and maps each block while it is still in cache, so the
exit jitters and maps a block, not a whole column. The loop fills an
array it is given, and the exit gives it the generated cells: the target
codes are written over them in place.
"""

from __future__ import annotations

import numpy as np

from .dataset import MarginalTable, MicroTable, Schema, VariableSpec, check_type
from .dataset import code_dtype, count_below, integer_array, marginals_of, new_codes
from .dataset import row_blocks
from .errors import SynthesisError


def rank_recode(source: MicroTable) -> tuple[MicroTable, MarginalTable]:
    """Recode each column onto its observed support 0..k-1, with its counts.

    The recoding is strictly monotone per column, so dependence structure
    is untouched; the derived schema drops categories the sample never
    shows, so every recoded count is positive.
    """
    check_type(source, MicroTable, "source")
    if source.n_rows == 0:
        raise SynthesisError("cannot fit an ECDF on an empty table")
    full = marginals_of(source)
    supports = [np.flatnonzero(c) for c in full.counts]
    schema = Schema(
        tuple(
            VariableSpec(
                name=var.name,
                labels=tuple(var.labels[c] for c in support),
                kind=var.kind,
            )
            for var, support in zip(source.schema.variables, supports)
        )
    )
    ranks = new_codes(schema, source.n_rows)
    for i, support in enumerate(supports):
        # A rank is below the support's size: code_dtype(schema) holds it.
        ranks[:, i] = np.searchsorted(support, source.column(i))
    ranks.flags.writeable = False
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
    check_type(rng, np.random.Generator, "rng")
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
    arr = _real_array(u)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise SynthesisError("u values must lie in (0,1]")
    width = 1 << (len(cum) - 1).bit_length()
    cuts = np.full(width, np.inf)
    cuts[: len(cum) - 1] = cum[:-1]
    return count_below(cuts, width, arr)


def _real_array(u) -> np.ndarray:
    """u as a float64 array, refused unless it holds real numbers."""
    try:
        arr = np.asarray(u)
    except (TypeError, ValueError):
        raise SynthesisError("u values must lie in (0,1]") from None
    # Only real numbers are cast: a complex u would lose its imaginary part,
    # a string would be parsed, and a bool would count as 0 or 1.
    if arr.dtype.kind not in "iuf":
        raise SynthesisError("u values must lie in (0,1]")
    return arr.astype(np.float64, copy=False)


def codes_by_block(targets: MarginalTable, uniforms, codes) -> MicroTable:
    """Fill ``codes``: column i's uniforms through target marginal i's pseudo-inverse.

    ``codes`` is an owning (n, d) ``new_codes(targets.schema, n)`` array;
    the returned table keeps it, so the exit holds one table plus a
    block's scratch. ``uniforms(i, block)`` gives column i's uniforms on a
    row block (a slice from ``row_blocks(n)``). Columns are asked for in
    order and each column's blocks in order, so it may draw from a random
    stream as it goes. A block's uniforms are made before its codes are
    stored, so they may be read from the same cells of ``codes``.
    """
    check_type(targets, MarginalTable, "targets")
    schema = targets.schema
    if not (
        isinstance(codes, np.ndarray) and codes.flags.owndata
        and codes.flags.f_contiguous and codes.shape[1:] == (schema.d,)
        and codes.dtype == code_dtype(schema)
    ):
        raise SynthesisError(
            f"codes must be an owning, column-major (n, {schema.d}) "
            f"{code_dtype(schema)} array"
        )
    if not callable(uniforms):
        raise SynthesisError(f"uniforms must be a function, got {uniforms!r}")
    codes.flags.writeable = True
    for i in range(schema.d):
        for block in row_blocks(codes.shape[0]):
            # The count of cuts below u <= 1 is at most m - 1: the narrowing
            # store cannot wrap.
            codes[block, i] = _block_codes(targets.counts[i], uniforms, i, block)
    codes.flags.writeable = False
    return MicroTable(schema, codes)


def _block_codes(counts, uniforms, i: int, block: slice) -> np.ndarray:
    """Column i's codes on a block, one per row; freed before the next block's."""
    got = pseudo_inverse_many(counts, uniforms(i, block))
    if got.shape != (block.stop - block.start,):
        raise SynthesisError(
            f"uniforms({i}, {block}) gave shape {got.shape}, "
            f"not ({block.stop - block.start},)"
        )
    return got


def cells_to_targets(cells, source: MarginalTable, targets: MarginalTable, rng):
    """The copula exit: generated cells to target codes, in a MicroTable.

    ``cells`` is an (n, d) array of ranks on ``source`` (``rank_recode``'s
    marginals) that no table reads again. Each column's cells are jittered
    into uniforms and mapped through the target's pseudo-inverse, a row
    block at a time, and the codes are written over ``cells`` in place.
    Where the ranks' dtype is narrower than the target codes', the ranks
    are only read and the codes fill a new array.
    """
    check_type(cells, np.ndarray, "cells")
    check_type(source, MarginalTable, "source")
    check_type(targets, MarginalTable, "targets")
    check_type(rng, np.random.Generator, "rng")
    d = targets.schema.d
    if cells.shape[1:] != (d,) or source.schema.d != d:
        raise SynthesisError(
            f"cells of shape {cells.shape} on {source.schema.d} source marginals: "
            f"expected (n, {d}) on {d}"
        )
    codes = cells
    if cells.dtype != code_dtype(targets.schema):
        codes = new_codes(targets.schema, len(cells))

    def jittered(i, block):  # column i's cells on a block, as uniforms
        return jitter_cells(source.counts[i], cells[block, i], rng)

    return codes_by_block(targets, jittered, codes)
