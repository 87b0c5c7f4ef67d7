"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code can run 1.5x slower for tens of seconds at a
time, because of load the benchmark does not control. The worker times this
kernel just before and just after the timed call sequence, and ``run.py``
scales each iteration's times by ``NOMINAL_S / kernel time``. A slow phase
slows the kernel and the sequence alike, so the scaled times keep the
program's cost and lose most of the machine's.

The kernel uses no copulasynth code, so a change to the program cannot move
it. Its mix follows the workloads: Python-level counting of tuple rows (as
in CSV parsing and the distinct sets) and numpy key packing, ``unique``,
``bincount`` and ``argsort`` (as in SRMSE, IPF and sampling).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU machine the bounds were set on. It only
# fixes the unit of the scaled times: they read as seconds at that speed.
NOMINAL_S = 0.11
SAMPLES = 3  # kernel runs on each side of the timed sequence
REPEATS = 60  # passes over the arrays in one kernel run


class Kernel:
    """Small arrays (under 100 KB each), so that keeping the kernel alive
    through the timed sequence adds little to ``peak_rss_mb`` and no array
    large enough to be memory-mapped is allocated or freed beside the program."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230217)
        self.codes = rng.integers(0, 6, size=(2_000, 6))
        self.floats = rng.random(10_000)
        self.rows = [tuple(r) for r in self.codes.tolist()]
        self.weights = 6 ** np.arange(6)

    def once(self) -> int:
        total = 0
        for _ in range(REPEATS):
            counts: dict[tuple, int] = {}
            for row in self.rows:
                counts[row] = counts.get(row, 0) + 1
            keys = self.codes @ self.weights
            _, freq = np.unique(keys, return_counts=True)
            order = np.argsort(self.floats, kind="stable")
            bins = np.bincount(keys % 512, minlength=512)
            total += len(counts) + int(freq.max() + order[0] + bins[0])
        return total

    def time(self, samples: int = SAMPLES) -> list[float]:
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            self.once()
            out.append(time.perf_counter() - start)
        return out


def scale(kernel_times: list[float]) -> float:
    """Factor that turns a time measured beside these kernel times into nominal seconds."""
    return NOMINAL_S / statistics.median(kernel_times)
