"""Empirical marginals, cell jittering, and the pseudo-inverse transform.

The pipeline casts a discrete sample into the unit hypercube through each
column's ECDF (see ``pipeline.rank_recode``), models the dependence there,
and maps generated uniforms back through the pseudo-inverse of a (possibly
different) target marginal. Jittering realizes the continuous relaxation
of the step ECDF: a generated cell k is placed uniformly inside the
probability interval (F(x^(k-1)), F(x^(k))], which makes the generated
uniforms exactly uniform on (0,1] whenever cells follow the source
marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SynthesisError


@dataclass(frozen=True, eq=False)
class EmpiricalMarginal:
    """Step CDF over the ordered distinct codes of one variable.

    ``values`` are the distinct observed codes in increasing order and
    ``cumprobs`` the multiplicity-weighted cumulative probabilities at
    those codes. Categories with zero mass never appear, so cumprobs is
    strictly increasing and ends at exactly 1.
    """

    values: np.ndarray
    cumprobs: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.int64, copy=True)
        cum = np.array(self.cumprobs, dtype=np.float64, copy=True)
        if vals.ndim != 1 or vals.shape != cum.shape or vals.size == 0:
            raise SynthesisError("marginal needs matching non-empty value/prob arrays")
        if (np.diff(vals) <= 0).any():
            raise SynthesisError("marginal values must be strictly increasing")
        if (np.diff(cum) <= 0).any() or cum[0] <= 0 or cum[-1] != 1.0:
            raise SynthesisError(
                "cumulative probabilities must be strictly increasing in (0,1] "
                "and end at exactly 1"
            )
        vals.flags.writeable = False
        cum.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cumprobs", cum)

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalMarginal":
        """Build from per-category counts; zero-count categories are dropped."""
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.sum() <= 0:
            raise SynthesisError("counts must be a 1-d array with positive total")
        if (arr < 0).any():
            raise SynthesisError("negative count")
        support = np.flatnonzero(arr)
        cum = np.cumsum(arr[support]) / arr.sum()
        cum[-1] = 1.0
        return cls(values=support, cumprobs=cum)


def jitter_cells(marginal: EmpiricalMarginal, cells, rng) -> np.ndarray:
    """A uniform draw in (F(x^(k-1)), F(x^(k))] per 0-based cell k; F(x^(-1)) is 0."""
    idx = np.asarray(cells, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= marginal.n_cells):
        raise SynthesisError(
            f"cell index outside 0..{marginal.n_cells - 1}: "
            f"range [{idx.min()}, {idx.max()}]"
        )
    lows = np.concatenate([[0.0], marginal.cumprobs[:-1]])
    lo = lows[idx]
    hi = marginal.cumprobs[idx]
    return hi - rng.random(idx.shape) * (hi - lo)


def pseudo_inverse_many(target: EmpiricalMarginal, u) -> np.ndarray:
    """For each u, the smallest target value whose cumulative probability reaches u."""
    arr = np.asarray(u, dtype=np.float64)
    if arr.size and ((arr <= 0.0).any() or (arr > 1.0).any()):
        raise SynthesisError("u values must lie in (0,1]")
    ranks = np.searchsorted(target.cumprobs, arr, side="left")
    return target.values[ranks]
