"""Iterative proportional fitting over the seed's observed cells.

The seed is the source sample's cross-tabulation, held as its observed
cells only: the distinct rows in lexicographic order, one weight each.
Fitting cyclically rescales each axis until the one-way sums match the
target marginals. Raking multiplies a cell by factors of its own
categories, so a zero seed cell stays zero (no epsilon is added) and the
fit only moves mass among the cells the sample observed. That is what
makes this baseline precise but low-coverage, and it is why the table
costs memory per observed cell, not per cell of the category product.
Allocation draws rows i.i.d. from the fitted cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import MarginalTable, MicroTable, Schema, new_codes, row_blocks, set_keys
from .dataset import check_type, float_array, is_finite_real, is_integer
from .errors import SynthesisError


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Nonnegative weights on distinct category combinations.

    ``cells`` holds one combination per row, in lexicographic order, and
    ``values`` one weight per cell; every combination not listed weighs 0.
    Tables returned by fit() additionally carry convergence diagnostics:
    completed cycles, the final worst axis-sum deviation, and any target
    mass that sits on categories with zero seed support (unreachable).
    """

    cells: MicroTable
    values: np.ndarray
    iterations: int | None = None
    max_deviation: float | None = None
    unreachable: tuple[tuple[str, str, float], ...] = field(default=())

    def __post_init__(self):
        check_type(self.cells, MicroTable, "cells")
        arr = float_array(self.values, "cell weights")
        if arr.shape != (self.cells.n_rows,):
            raise SynthesisError(
                f"{arr.shape} weights do not match {self.cells.n_rows} cells"
            )
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise SynthesisError("cells must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "unreachable", tuple(self.unreachable))

    @property
    def schema(self) -> Schema:
        return self.cells.schema

    @property
    def total(self) -> float:
        return float(self.values.sum())


def build_seed(table: MicroTable) -> ContingencyTable:
    """Cross-tabulate the sample: its distinct rows and how often each occurs."""
    check_type(table, MicroTable, "table")
    if table.n_rows == 0:
        raise SynthesisError("cannot build a seed table from an empty sample")
    schema, n = table.schema, table.n_rows
    ((_, key, _),) = set_keys([range(schema.d)], schema.dims, table.column, n)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    cells = MicroTable(schema, table.codes[first])
    return ContingencyTable(cells, counts.astype(np.float64))


def fit(
    seed: ContingencyTable,
    targets: MarginalTable,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> ContingencyTable:
    """Cyclic axis scaling until every axis sum matches its target.

    Targets with unequal totals are renormalized to their mean total
    first. Convergence is declared when the worst absolute axis-sum
    deviation drops below tol times the total mass. Target mass on
    categories without seed support is reported as unreachable and keeps
    the deviation floor above zero; fitting still runs its course.
    """
    check_type(seed, ContingencyTable, "seed")
    check_type(targets, MarginalTable, "targets")
    if not is_finite_real(tol):
        raise SynthesisError(f"tol must be a finite number, got {tol!r}")
    if tol <= 0:
        raise SynthesisError("tol must be positive")
    if not is_integer(max_iter):
        raise SynthesisError(f"max_iter {max_iter!r} is not an integer")
    if max_iter < 1:
        raise SynthesisError("max_iter must be >= 1")
    if targets.schema is not seed.schema and targets.schema != seed.schema:
        raise SynthesisError("seed and targets use different schemas")
    d, dims = seed.schema.d, seed.schema.dims
    totals = np.array([c.sum() for c in targets.counts], dtype=np.float64)
    common = float(totals.mean())
    goal = [targets.counts[i] * (common / totals[i]) for i in range(d)]
    columns = [seed.cells.column(i) for i in range(d)]

    def axis_sums(values: np.ndarray, axis: int) -> np.ndarray:
        return np.bincount(columns[axis], weights=values, minlength=dims[axis])

    # Each cycle's first step scales by the axis-0 sums of the values as the
    # support check or the previous cycle's deviation check left them.
    sums = [axis_sums(seed.values, i) for i in range(d)]
    unreachable = []
    for i in range(d):
        for cat in np.flatnonzero(~(sums[i] > 0) & (goal[i] > 0)):
            unreachable.append(
                (
                    seed.schema.names[i],
                    seed.schema.variables[i].labels[cat],
                    float(goal[i][cat]),
                )
            )
    if unreachable:
        lost = 0.0
        for _, _, mass in unreachable:  # one += at a time: sum() compensates on 3.12+
            lost += mass
        warnings.warn(
            f"{len(unreachable)} target categor(ies) have no seed support; "
            f"{lost:g} units of target mass are unreachable",
            stacklevel=2,
        )

    values = np.array(seed.values, dtype=np.float64, copy=True)
    threshold = tol * common
    iterations = 0
    deviation = math.inf
    for _ in range(max_iter):
        for axis in range(d):
            held = axis_sums(values, axis) if axis else sums[0]
            factor = np.divide(goal[axis], held, out=np.ones_like(held), where=held > 0)
            values *= factor.take(columns[axis])
        iterations += 1
        sums = [axis_sums(values, i) for i in range(d)]
        deviation = max(float(np.abs(s - g).max()) for s, g in zip(sums, goal))
        if deviation < threshold:
            break
    return ContingencyTable(
        seed.cells,
        values,
        iterations=iterations,
        max_deviation=deviation,
        unreachable=tuple(unreachable),
    )


def allocate(fitted: ContingencyTable, n: int, rng) -> MicroTable:
    """Draw n rows i.i.d. from cells with probability proportional to value.

    Rows are drawn a row block at a time (row_blocks), each block's cells
    copied into one ``new_codes`` array that the returned table keeps;
    consecutive blocks draw what one rng.choice of all n rows would.
    """
    check_type(fitted, ContingencyTable, "fitted")
    if not is_integer(n):
        raise SynthesisError(f"allocation size {n!r} is not an integer")
    if n < 0:
        raise SynthesisError("allocation size must be >= 0")
    check_type(rng, np.random.Generator, "rng")
    total = fitted.total
    if total <= 0:
        raise SynthesisError("cannot allocate from an all-zero table")
    p, cells = fitted.values / total, fitted.cells.codes
    codes = new_codes(fitted.schema, n)
    for block in row_blocks(n):
        codes[block] = cells[rng.choice(p.size, size=block.stop - block.start, p=p)]
    codes.flags.writeable = False
    return MicroTable(fitted.schema, codes)
