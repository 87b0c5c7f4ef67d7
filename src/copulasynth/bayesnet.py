"""Discrete Bayesian networks over coded categorical data.

Provides MDL family scoring, a greedy ordering-based structure search with
seeded restarts, multinomial parameter fitting with optional additive
smoothing, and vectorized ancestral sampling. Scores use natural
logarithms throughout.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import (
    KEY_RANGE_PER_ROW,
    MicroTable,
    Schema,
    as_tuple,
    check_type,
    count_below,
    float_array,
    is_finite_real,
    is_integer,
    new_codes,
    row_blocks,
    set_keys,
)
from .errors import SynthesisError

# learn_structure keeps the best of this many seeded orderings.
N_RESTARTS = 10
# _family_scores scores about this many family cells per pass, so the pass's
# int64 work arrays stay below glibc's default 128 KiB mmap threshold and
# each pass reuses freed heap memory.
_CHUNK_CELLS = 1 << 13


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph as a per-node tuple of parent indices."""

    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        parent_sets = as_tuple(self.parents, "parent sets")
        d = len(parent_sets)
        checked = (_checked_parents(i, ps, d) for i, ps in enumerate(parent_sets))
        object.__setattr__(self, "parents", tuple(checked))
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
        check_type(self.schema, Schema, "schema")
        check_type(self.dag, Dag, "dag")
        cpts = as_tuple(self.cpts, "CPTs")
        if self.dag.d != self.schema.d or len(cpts) != self.schema.d:
            raise SynthesisError("DAG, CPTs, and schema disagree on node count")
        dims = self.schema.dims
        fixed = []
        for node, cpt in enumerate(cpts):
            arr = float_array(cpt, f"CPT of node {node}")
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
    node's cardinality. Higher is better. A one-family call of the scorer
    that learn_structure runs on whole rounds of families.
    """
    if data.n_rows == 0:
        raise SynthesisError("cannot score an empty table")
    d = data.schema.d
    if not is_integer(node):
        raise SynthesisError(f"node {node!r} is not an integer")
    if not 0 <= node < d:
        raise SynthesisError(f"node {node} out of range 0..{d - 1}")
    return _family_scores(data, [(int(node), _checked_parents(node, parents, d))])[0]


def _checked_parents(node: int, parents, d: int) -> tuple[int, ...]:
    """A node's parents as sorted integer indices in 0..d-1, none twice or itself."""
    parents = as_tuple(parents, "parents")
    for p in parents:
        if not is_integer(p):
            raise SynthesisError(f"parent index {p!r} is not an integer")
    parents = tuple(sorted(map(int, parents)))
    if len(set(parents)) != len(parents):
        raise SynthesisError(f"node {node} lists a parent twice")
    for p in parents:
        if not 0 <= p < d:
            raise SynthesisError(f"parent {p} of node {node} out of range")
        if p == node:
            raise SynthesisError(f"node {node} cannot be its own parent")
    return parents


def _family_scores(data: MicroTable, families) -> list[float]:
    """MDL scores of (node, sorted parents) families, in the given order.

    Families are grouped by column set, their parents plus node, and each
    set is counted once (see _set_tables). A family reads its (parents...,
    node) counts from its set's table with the node's axis moved last; a
    set too large for a dense table is counted per family over set_keys'
    re-ranked keys. Either way a family's observed counts come in
    lexicographic order, so its float sums add the same terms in the same
    order whichever route or chunk it takes.
    """
    dims = data.schema.dims
    half_log_n = 0.5 * math.log(data.n_rows)
    by_set: dict[tuple[int, ...], list[int]] = {}
    for i, (node, parents) in enumerate(families):
        by_set.setdefault(tuple(sorted((*parents, node))), []).append(i)
    scores = [0.0] * len(families)
    chunk: list[tuple] = []  # (family index, dense pair counts, m, penalty)
    cells = 0
    for cols, table in _set_tables(data, sorted(by_set)):
        for i in by_set[cols]:
            node, parents = families[i]
            m = dims[node]
            penalty = half_log_n * math.prod(dims[p] for p in parents) * (m - 1)
            if table is None:
                pair, config = _reranked_counts(data, node, parents)
                sizes = [pair.size], [config.size]
                (scores[i],) = _mdl_scores(pair, config, *sizes, [penalty])
                continue
            if chunk and cells + table.size > _CHUNK_CELLS:
                _score_chunk(chunk, scores)
                chunk, cells = [], 0
            axes = list(range(table.ndim))
            axes.append(axes.pop(cols.index(node)))
            chunk.append((i, table.transpose(axes).ravel(), m, penalty))
            cells += table.size
    if chunk:
        _score_chunk(chunk, scores)
    return scores


def _set_tables(data: MicroTable, sets):
    """Yield each sorted column set with its dense count table, one axis per column.

    A set whose grid would pass set_keys' budget comes first, with None;
    the others follow in order, keyed by one set_keys walk, never re-ranked.
    """
    n, dims = data.n_rows, data.schema.dims
    shapes = {}
    for cols in sets:
        shape = [dims[c] for c in cols]
        if math.prod(shape) > KEY_RANGE_PER_ROW * n:
            yield cols, None
        else:
            shapes[cols] = shape
    for cols, keys, span in set_keys(shapes, dims, data.column, n):
        yield cols, np.bincount(keys, minlength=span).reshape(shapes[cols])


def _reranked_counts(data: MicroTable, node: int, parents):
    """A family's observed pair and parent-configuration counts over re-ranked keys.

    Re-ranking keeps the keys' order, so both come in lexicographic order.
    """
    dims, family = data.schema.dims, [parents, (*parents, node)]
    (_, config, _), (_, pair, _) = set_keys(family, dims, data.column, data.n_rows)
    pair, config = np.bincount(pair), np.bincount(config)
    return pair[pair > 0], config[config > 0]


def _score_chunk(chunk, scores):
    """Score a chunk of families from their dense (parents..., node) counts.

    Every run of m cells of a family's counts is one parent configuration,
    so one integer reduceat gives all the configuration counts.
    """
    ids, pairs, ms, penalties = zip(*chunk)
    sizes = np.array([p.size for p in pairs])
    configs = sizes // ms
    pair = np.concatenate(pairs)
    config = np.add.reduceat(pair, _starts(np.repeat(ms, configs)))
    pair_seen, config_seen = pair > 0, config > 0
    pair_sizes = np.add.reduceat(pair_seen, _starts(sizes), dtype=np.intp)
    config_sizes = np.add.reduceat(config_seen, _starts(configs), dtype=np.intp)
    chunk_scores = _mdl_scores(
        pair[pair_seen],
        config[config_seen],
        pair_sizes.tolist(),
        config_sizes.tolist(),
        penalties,
    )
    for i, score in zip(ids, chunk_scores):
        scores[i] = score


def _starts(sizes):
    """Where each of consecutive runs of these sizes starts."""
    return np.cumsum(sizes) - sizes


def _mdl_scores(pair, config, pair_sizes, config_sizes, penalties) -> list[float]:
    """Family scores from observed counts, family after family in each array.

    One n * ln(n) pass covers all the counts. Each float sum is one
    np.add.reduce over a family's contiguous slice, which adds exactly as
    a sum over a copy of that slice would.
    """
    counts = np.concatenate((pair, config))
    terms = counts * np.log(counts)
    ends = list(itertools.accumulate(pair_sizes + config_sizes, initial=0))
    k = len(penalties)
    return [
        float(
            np.add.reduce(terms[ends[f] : ends[f + 1]])
            - np.add.reduce(terms[ends[k + f] : ends[k + f + 1]])
        )
        - penalty
        for f, penalty in enumerate(penalties)
    ]


def network_score(data: MicroTable, dag: Dag) -> float:
    """Total MDL score: sum of family scores (decomposable).

    The scores are added one at a time in node order, as learn_structure
    adds its restart totals: sum() compensates on Python 3.12+, so its
    total could differ in the last bits across Python versions.
    """
    total = 0.0
    for score in _family_scores(data, list(enumerate(dag.parents))):
        total += score
    return total


def learn_structure(data: MicroTable, max_parents: int = 3, seed: int = 0) -> Dag:
    """Greedy ordering search over N_RESTARTS seeded random restarts.

    Each restart draws a variable ordering from the seeded stream; each
    node then greedily accumulates parents from its predecessors while the
    family score strictly improves, up to max_parents. A node's choices
    depend only on its restart's ordering, so all restarts and nodes run in
    lockstep rounds, one per parent count: a round lists each growing node's
    trials once and scores them in one _family_scores call (none was scored
    before: each has one parent more), then each node takes its best trial;
    the rounds stop once no node grows. Candidate parents are tried in
    increasing index order and the first best is taken only if it strictly
    beats the current score, so ties resolve to the lowest index. Each
    restart's total adds its family scores one at a time in ordering order;
    the first restart reaching the best total is kept. Deterministic per seed.
    """
    check_type(data, MicroTable, "data")
    if data.n_rows == 0:
        raise SynthesisError("cannot learn structure from an empty table")
    for name, value in (("max_parents", max_parents), ("seed", seed)):
        if not is_integer(value) or value < 0:
            raise SynthesisError(f"{name} must be an integer >= 0, got {value!r}")
    d = data.schema.d
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(d).tolist() for _ in range(N_RESTARTS)]
    scores: dict[tuple[int, tuple[int, ...]], float] = {}

    def score(families):  # each family once: no round repeats an earlier one's
        new = list(dict.fromkeys(families))
        scores.update(zip(new, _family_scores(data, new)))

    score((node, ()) for node in range(d))
    parents = [[()] * d for _ in orders]
    # (restart, node, candidate parents) of every node still adding parents
    growing = [
        (r, node, sorted(order[:pos]))
        for r, order in enumerate(orders)
        for pos, node in enumerate(order)
    ]
    for _ in range(max_parents):
        if not growing:  # every node has stopped: later rounds would be empty
            break
        tried = [  # each node's trial parent sets, in candidate order
            [tuple(sorted((*ps, c))) for c in cands if c not in ps]
            for r, node, cands in growing
            for ps in [parents[r][node]]
        ]
        score((node, t) for (_, node, _), trials in zip(growing, tried) for t in trials)
        kept = []
        for (r, node, cands), trials in zip(growing, tried):
            best = max(trials, key=lambda t: scores[node, t], default=None)
            if best is not None and scores[node, best] > scores[node, parents[r][node]]:
                parents[r][node] = best
                kept.append((r, node, cands))
        growing = kept
    totals = [0.0] * len(orders)
    for r, order in enumerate(orders):
        for node in order:  # one += at a time: sum() compensates on Python 3.12+
            totals[r] += scores[node, parents[r][node]]
    return Dag(parents=tuple(parents[totals.index(max(totals))]))


def fit_parameters(data: MicroTable, dag: Dag, alpha: float = 0.1) -> BayesNet:
    """Multinomial MLE with additive smoothing alpha per (config, category).

    theta = (count + alpha) / (config_total + alpha * m). With alpha = 0,
    parent configurations never observed get a uniform row and a warning;
    with alpha > 0 the formula already yields uniform rows for them.
    """
    check_type(data, MicroTable, "data")
    check_type(dag, Dag, "dag")
    if data.n_rows == 0:
        raise SynthesisError("cannot fit parameters on an empty table")
    if not is_finite_real(alpha):
        raise SynthesisError(f"alpha must be a finite number, got {alpha!r}")
    if alpha < 0:
        raise SynthesisError("alpha must be >= 0")
    if dag.d != data.schema.d:
        raise SynthesisError("DAG and data disagree on node count")
    dims = data.schema.dims
    if not math.isfinite(float(alpha) * max(dims)):  # else alpha * m overflows
        raise SynthesisError(
            f"alpha {alpha!r} times {max(dims)} categories is not a finite number"
        )
    cpts = []
    for node in range(dag.d):
        ps = dag.parents[node]
        m = dims[node]
        q = math.prod(dims[p] for p in ps)
        # The CPT holds all q * m cells, so the keys are counted unranked.
        family = [(*ps, node)]
        ((_, key, _),) = set_keys(family, dims, data.column, data.n_rows, q * m)
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
    """Ancestral sampling in topological order, vectorized over rows.

    Each node keys its parents' codes and draws rng.random(k) for each row
    block of k rows (row_blocks), and searches that block at once, so its
    uniforms are still in cache; consecutive blocks draw the same doubles
    as one rng.random(n). A row's code is the count of its CPT row's first
    m - 1 cumulative shares below its uniform (count_below), each row
    padded with inf to a power of two. A category whose share is 0 is
    never drawn. The codes are filled in one ``new_codes`` array that the
    returned table keeps: sampling holds one (n, d) table plus a block's
    scratch.
    """
    check_type(bn, BayesNet, "bn")
    if not is_integer(n):
        raise SynthesisError(f"sample size {n!r} is not an integer")
    if n < 0:
        raise SynthesisError("sample size must be >= 0")
    check_type(rng, np.random.Generator, "rng")
    dims = bn.schema.dims
    # Column-major, so each node reads its parents as contiguous columns;
    # topological order fills every parent before its children read it.
    codes = new_codes(bn.schema, n)
    for node in bn.dag.topological_order():
        theta = bn.cpts[node]
        q, m = theta.shape
        parents = [bn.dag.parents[node]]
        width = 1 << (m - 1).bit_length()
        cum = np.full((q, width), np.inf)
        np.cumsum(theta[:, :-1], axis=1, out=cum[:, : m - 1])
        # A zero share at either end of a row stays unreachable even when u is
        # 0 or the row's float sum falls short of u: shares before the first
        # positive one always count, and none from the last positive one on.
        positive, j = theta > 0, np.arange(width)
        cum[j < positive.argmax(axis=1)[:, None]] = -np.inf
        cum[j >= m - 1 - positive[:, ::-1].argmax(axis=1)[:, None]] = np.inf
        cuts = cum.ravel()
        for block in row_blocks(n):
            k = block.stop - block.start
            # A budget of the CPT's row count keeps the keys unranked: row indices.
            ((_, config, _),) = set_keys(parents, dims, lambda c: codes[block, c], k, q)
            u = rng.random(k)
            # < m: the narrowing store cannot wrap.
            codes[block, node] = count_below(cuts, width, u, config)
    codes.flags.writeable = False
    return MicroTable(bn.schema, codes)
