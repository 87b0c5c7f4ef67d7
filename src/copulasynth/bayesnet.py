"""Discrete Bayesian networks over coded categorical data.

Provides MDL family scoring, a greedy ordering-based structure search with
seeded restarts, multinomial parameter fitting with optional additive
smoothing, and vectorized ancestral sampling. Scores use natural
logarithms throughout.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import MicroTable, Schema
from .errors import SynthesisError
from .metrics import combo_keys, extend_keys

# learn_structure keeps the best of this many seeded orderings.
N_RESTARTS = 10


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph as a per-node tuple of parent indices."""

    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = []
        d = len(self.parents)
        for node, ps in enumerate(self.parents):
            ps = tuple(sorted(int(p) for p in ps))
            if len(set(ps)) != len(ps):
                raise SynthesisError(f"node {node} lists a parent twice")
            for p in ps:
                if not 0 <= p < d:
                    raise SynthesisError(f"parent {p} of node {node} out of range")
                if p == node:
                    raise SynthesisError(f"node {node} cannot be its own parent")
            normalized.append(ps)
        object.__setattr__(self, "parents", tuple(normalized))
        self.topological_order()  # raises on cycles

    @property
    def d(self) -> int:
        return len(self.parents)

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm, always expanding the smallest ready index."""
        indegree = [len(ps) for ps in self.parents]
        children: list[list[int]] = [[] for _ in range(self.d)]
        for node, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(node)
        ready = [i for i in range(self.d) if indegree[i] == 0]  # sorted: a heap
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != self.d:
            raise SynthesisError("parent sets contain a cycle")
        return tuple(order)


@dataclass(frozen=True, eq=False)
class BayesNet:
    """DAG plus per-node CPTs; the joint factorizes by the chain rule.

    A CPT is a (parent configurations, categories) float array whose rows
    are distributions; parent configurations run in mixed-radix order.
    """

    schema: Schema
    dag: Dag
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dag.d != self.schema.d or len(self.cpts) != self.schema.d:
            raise SynthesisError("DAG, CPTs, and schema disagree on node count")
        dims = self.schema.dims
        fixed = []
        for node, cpt in enumerate(self.cpts):
            arr = np.array(cpt, dtype=np.float64, copy=True)
            q = math.prod(dims[p] for p in self.dag.parents[node])
            if arr.shape != (q, dims[node]):
                raise SynthesisError(
                    f"CPT of node {node} has shape {arr.shape}, "
                    f"expected ({q}, {dims[node]})"
                )
            if (arr < 0).any():
                raise SynthesisError("CPT entries must be nonnegative")
            if not (np.abs(arr.sum(axis=1) - 1.0) <= 1e-12).all():
                raise SynthesisError("every CPT row must sum to 1 within 1e-12")
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "cpts", tuple(fixed))


def family_score_mdl(data: MicroTable, node: int, parents=()) -> float:
    """Maximized log-likelihood of node given parents, minus the MDL penalty.

    Penalty = (ln N / 2) * q * (m - 1) where q is the number of parent
    configurations (the full product of parent cardinalities) and m the
    node's cardinality. Higher is better.
    """
    n = data.n_rows
    if n == 0:
        raise SynthesisError("cannot score an empty table")
    d = data.schema.d
    if not 0 <= node < d:
        raise SynthesisError(f"node {node} out of range 0..{d - 1}")
    parents = tuple(sorted(int(p) for p in parents))
    if node in parents:
        raise SynthesisError(f"node {node} cannot be its own parent")
    if any(not 0 <= p < d for p in parents):
        raise SynthesisError("parent index out of range")
    dims = data.schema.dims
    m = dims[node]
    q = math.prod(dims[p] for p in parents)
    (config_key,), span = combo_keys((data.codes,), dims, parents)
    (pair_key,), _ = extend_keys([config_key], span, [data.column(node)], m)
    # Rows per observed combination, in lexicographic order whatever the
    # key range, so the float sums below always add in the same order.
    pair_counts, config_counts = (
        c[c > 0] for c in (np.bincount(pair_key), np.bincount(config_key))
    )
    loglik = float(
        np.sum(pair_counts * np.log(pair_counts))
        - np.sum(config_counts * np.log(config_counts))
    )
    penalty = 0.5 * math.log(n) * q * (m - 1)
    return loglik - penalty


def network_score(data: MicroTable, dag: Dag) -> float:
    """Total MDL score: sum of family scores (decomposable)."""
    return sum(
        family_score_mdl(data, node, ps) for node, ps in enumerate(dag.parents)
    )


def learn_structure(data: MicroTable, max_parents: int = 3, seed: int = 0) -> Dag:
    """Greedy ordering search over N_RESTARTS seeded random restarts.

    Each restart draws a variable ordering from the seeded stream; each
    node then greedily accumulates parents from its predecessors while the
    family score strictly improves, up to max_parents. The best-scoring
    network over all restarts wins. Candidate parents are tried in
    increasing index order, so ties resolve to the lowest index; the first
    restart reaching the best total is kept. Deterministic per seed.
    """
    if data.n_rows == 0:
        raise SynthesisError("cannot learn structure from an empty table")
    if max_parents < 0:
        raise SynthesisError("max_parents must be >= 0")
    d = data.schema.d
    cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def scored(node: int, parents: tuple[int, ...]) -> float:
        key = (node, parents)
        if key not in cache:
            cache[key] = family_score_mdl(data, node, parents)
        return cache[key]

    rng = np.random.default_rng(seed)
    best_parents: tuple[tuple[int, ...], ...] | None = None
    best_total = -math.inf
    for _ in range(N_RESTARTS):
        order = rng.permutation(d)
        parents_by_node: list[tuple[int, ...]] = [()] * d
        total = 0.0
        for pos in range(d):
            node = int(order[pos])
            predecessors = sorted(int(v) for v in order[:pos])
            current: tuple[int, ...] = ()
            current_score = scored(node, current)
            while len(current) < max_parents:
                chosen = None
                chosen_score = current_score
                for cand in predecessors:
                    if cand in current:
                        continue
                    trial = tuple(sorted(current + (cand,)))
                    s = scored(node, trial)
                    if s > chosen_score:
                        chosen, chosen_score = cand, s
                if chosen is None:
                    break
                current = tuple(sorted(current + (chosen,)))
                current_score = chosen_score
            parents_by_node[node] = current
            total += current_score
        if total > best_total:
            best_total = total
            best_parents = tuple(parents_by_node)
    assert best_parents is not None
    return Dag(parents=best_parents)


def fit_parameters(data: MicroTable, dag: Dag, alpha: float = 0.1) -> BayesNet:
    """Multinomial MLE with additive smoothing alpha per (config, category).

    theta = (count + alpha) / (config_total + alpha * m). With alpha = 0,
    parent configurations never observed get a uniform row and a warning;
    with alpha > 0 the formula already yields uniform rows for them.
    """
    if data.n_rows == 0:
        raise SynthesisError("cannot fit parameters on an empty table")
    if alpha < 0:
        raise SynthesisError("alpha must be >= 0")
    if dag.d != data.schema.d:
        raise SynthesisError("DAG and data disagree on node count")
    dims = data.schema.dims
    cpts = []
    for node in range(dag.d):
        ps = dag.parents[node]
        m = dims[node]
        q = math.prod(dims[p] for p in ps)
        # The CPT holds all q * m cells, so the keys are counted unranked.
        (key,), _ = combo_keys((data.codes,), dims, ps + (node,), budget=q * m)
        counts = np.bincount(key, minlength=q * m).reshape(q, m).astype(np.float64)
        denom = counts.sum(axis=1) + alpha * m
        unseen = denom == 0  # only when alpha = 0
        theta = (counts + alpha) / np.where(unseen, 1.0, denom)[:, None]
        if unseen.any():
            theta[unseen] = 1.0 / m
            warnings.warn(
                f"node {data.schema.names[node]}: {int(unseen.sum())} parent "
                "configuration(s) unobserved; rows left uniform",
                stacklevel=2,
            )
        cpts.append(theta)
    return BayesNet(schema=data.schema, dag=dag, cpts=tuple(cpts))


def sample(bn: BayesNet, n: int, rng) -> MicroTable:
    """Ancestral sampling in topological order, vectorized over rows."""
    if n < 0:
        raise SynthesisError("sample size must be >= 0")
    dims = bn.schema.dims
    codes = np.zeros((n, bn.schema.d), dtype=np.int64)
    for node in bn.dag.topological_order():
        theta = bn.cpts[node]
        # A budget of the CPT's row count keeps the keys unranked: row indices.
        (config,), _ = combo_keys(
            (codes,), dims, bn.dag.parents[node], budget=theta.shape[0]
        )
        # Binary-search u among the row's first m - 1 cumulative shares, in
        # O(n) memory; the last share is raised to inf so no code passes m - 1.
        m = dims[node]
        cum = np.cumsum(theta, axis=1)
        cum[:, -1] = np.inf
        u = rng.random(n)
        lo = np.zeros(n, dtype=np.int64)
        hi = np.full(n, m - 1, dtype=np.int64)
        for _ in range((m - 1).bit_length()):
            mid = (lo + hi) >> 1
            below = cum[config, mid] < u
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        codes[:, node] = lo
    return MicroTable(bn.schema, codes)
