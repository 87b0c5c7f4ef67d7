"""Iterative proportional fitting over a dense contingency table.

The seed table is the source sample's full cross-tabulation; fitting
cyclically rescales each axis until the one-way sums match the target
marginals. Zero seed cells stay zero (no epsilon is added), which is what
makes this baseline precise but low-coverage. Allocation draws rows
i.i.d. from the fitted cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import MarginalTable, MicroTable, Schema
from .errors import CapacityError, SynthesisError

CELL_BUDGET = 10**8


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Dense d-dimensional table of nonnegative reals, one axis per variable.

    Tables returned by fit() additionally carry convergence diagnostics:
    completed cycles, the final worst axis-sum deviation, and any target
    mass that sits on categories with zero seed support (unreachable).
    """

    schema: Schema
    values: np.ndarray
    iterations: int | None = None
    max_deviation: float | None = None
    unreachable: tuple[tuple[str, str, float], ...] = field(default=())

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != self.schema.dims:
            raise SynthesisError(
                f"table shape {arr.shape} does not match schema dims {self.schema.dims}"
            )
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise SynthesisError("cells must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "unreachable", tuple(self.unreachable))

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def axis_sums(self, axis: int) -> np.ndarray:
        other = tuple(j for j in range(self.schema.d) if j != axis)
        return self.values.sum(axis=other)


def build_seed(table: MicroTable) -> ContingencyTable:
    """Cross-tabulate the sample into a dense count table."""
    if table.n_rows == 0:
        raise SynthesisError("cannot build a seed table from an empty sample")
    dims = table.schema.dims
    n_cells = math.prod(dims)
    if n_cells > CELL_BUDGET:
        raise CapacityError(
            f"contingency table would hold {n_cells} cells "
            f"(budget {CELL_BUDGET}); drop or merge variables"
        )
    flat = np.ravel_multi_index(
        tuple(table.column(i) for i in range(table.schema.d)), dims
    )
    counts = np.bincount(flat, minlength=n_cells).astype(np.float64)
    return ContingencyTable(table.schema, counts.reshape(dims))


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
    if tol <= 0:
        raise SynthesisError("tol must be positive")
    if max_iter < 1:
        raise SynthesisError("max_iter must be >= 1")
    if targets.schema is not seed.schema and targets.schema != seed.schema:
        raise SynthesisError("seed and targets use different schemas")
    d = seed.schema.d
    totals = np.array([targets.total(i) for i in range(d)], dtype=np.float64)
    common = float(totals.mean())
    goal = [targets.counts[i] * (common / totals[i]) for i in range(d)]

    unreachable = []
    for i in range(d):
        support = seed.axis_sums(i) > 0
        for cat in np.flatnonzero(~support & (goal[i] > 0)):
            unreachable.append(
                (
                    seed.schema.names[i],
                    seed.schema.variables[i].labels[cat],
                    float(goal[i][cat]),
                )
            )
    if unreachable:
        lost = sum(mass for _, _, mass in unreachable)
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
            other = tuple(j for j in range(d) if j != axis)
            sums = values.sum(axis=other)
            factor = np.ones_like(sums)
            nz = sums > 0
            factor[nz] = goal[axis][nz] / sums[nz]
            shape = [1] * d
            shape[axis] = seed.schema.dims[axis]
            values *= factor.reshape(shape)
        iterations += 1
        deviation = max(
            float(np.abs(values.sum(axis=tuple(j for j in range(d) if j != i)) - goal[i]).max())
            for i in range(d)
        )
        if deviation < threshold:
            break
    return ContingencyTable(
        seed.schema,
        values,
        iterations=iterations,
        max_deviation=deviation,
        unreachable=tuple(unreachable),
    )


def allocate(fitted: ContingencyTable, n: int, rng) -> MicroTable:
    """Draw n rows i.i.d. from cells with probability proportional to value."""
    if n < 0:
        raise SynthesisError("allocation size must be >= 0")
    total = fitted.total
    if total <= 0:
        raise SynthesisError("cannot allocate from an all-zero table")
    probs = fitted.values.ravel() / total
    flat = rng.choice(probs.size, size=n, p=probs)
    codes = np.stack(np.unravel_index(flat, fitted.schema.dims), axis=1)
    return MicroTable(fitted.schema, codes.astype(np.int64))
