"""Empirical CDFs, cell jittering, and the pseudo-inverse transform.

The pipeline casts a discrete sample into the unit hypercube through each
column's ECDF (see ``pipeline.rank_recode``), models the dependence there,
and maps generated uniforms back through the pseudo-inverse of a (possibly
different) target marginal. A marginal is its per-category counts; the
ECDF is their cumulative share. Jittering realizes the continuous
relaxation of the step ECDF: a generated cell k is placed uniformly inside
the probability interval (F(x^(k-1)), F(x^(k))], which makes the generated
uniforms exactly uniform on (0,1] whenever cells follow the source
marginal.
"""

from __future__ import annotations

import numpy as np

from .dataset import integer_array
from .errors import SynthesisError


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
    """
    cum = ecdf(counts)
    if (np.asarray(counts) == 0).any():
        raise SynthesisError("jitter needs the counts of observed cells only")
    idx = integer_array(cells, "cells").astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= len(cum)):
        raise SynthesisError(
            f"cell index outside 0..{len(cum) - 1}: range [{idx.min()}, {idx.max()}]"
        )
    lows = np.concatenate([[0.0], cum[:-1]])
    lo = lows[idx]
    hi = cum[idx]
    return hi - rng.random(idx.shape) * (hi - lo)


def pseudo_inverse_many(counts, u) -> np.ndarray:
    """For each u, the smallest code whose cumulative probability reaches u.

    A zero-count code repeats its predecessor's F, so it is never the
    smallest code reaching any u > 0.
    """
    cum = ecdf(counts)
    arr = np.asarray(u, dtype=np.float64)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise SynthesisError("u values must lie in (0,1]")
    return np.searchsorted(cum, arr, side="left")
