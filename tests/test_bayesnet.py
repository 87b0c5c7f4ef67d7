"""MDL scoring, structure search, parameter fitting, and sampling."""

import functools
import hashlib
import itertools
import math
import operator
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulasynth import (
    MicroTable,
    SynthesisError,
    fit_parameters,
    learn_structure,
    make_transfer_benchmark,
    sample_bayesnet,
)
from copulasynth import bayesnet
from copulasynth.bayesnet import (
    N_RESTARTS,
    BayesNet,
    Dag,
    family_score_mdl,
    network_score,
)
from copulasynth.copula import rank_recode
from conftest import dag_edges, make_schema, random_table


def chain_table(seed, n=5000, p=0.9):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < p, a, 1 - a)
    c = np.where(rng.random(n) < p, b, 1 - b)
    return MicroTable(make_schema([2, 2, 2]), np.column_stack([a, b, c]))


def test_dag_validation():
    with pytest.raises(SynthesisError):
        Dag(parents=((1,), (0,)))  # 2-cycle
    with pytest.raises(SynthesisError):
        Dag(parents=((0,),))  # self-parent
    with pytest.raises(SynthesisError):
        Dag(parents=((5,), ()))
    with pytest.raises(SynthesisError):
        Dag(parents=((1, 1), ()))


def test_topological_order_smallest_first():
    dag = Dag(parents=((), (0,), (0,), (1, 2)))
    assert dag.topological_order() == (0, 1, 2, 3)
    # two roots: both before their children, smaller index first
    dag2 = Dag(parents=((), (), (0, 1)))
    assert dag2.topological_order() == (0, 1, 2)
    # a child freed by 2 comes before the root 3 that was ready earlier
    dag3 = Dag(parents=((), (2,), (), ()))
    assert dag3.topological_order() == (0, 2, 1, 3)


def test_family_score_empty_parents_formula():
    table = MicroTable(make_schema([3]), np.array([[0]] * 5 + [[1]] * 3 + [[2]] * 2))
    n = 10
    counts = np.array([5, 3, 2])
    expected = float((counts * np.log(counts / n)).sum()) - 0.5 * math.log(n) * 2
    assert family_score_mdl(table, 0, ()) == pytest.approx(expected, abs=1e-12)


def test_family_score_prefers_parent_for_deterministic_copy():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 1000)
    table = MicroTable(make_schema([2, 2]), np.column_stack([x, x]))
    assert family_score_mdl(table, 1, (0,)) > family_score_mdl(table, 1, ())


def test_family_score_rejects_parent_under_independence():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        codes = np.column_stack([rng.integers(0, 2, 4000), rng.integers(0, 2, 4000)])
        table = MicroTable(make_schema([2, 2]), codes)
        hits += family_score_mdl(table, 1, ()) > family_score_mdl(table, 1, (0,))
    assert hits >= 49


def test_family_score_input_validation():
    table = random_table([2, 2], 10, seed=0)
    with pytest.raises(SynthesisError):
        family_score_mdl(table, 5, ())
    with pytest.raises(SynthesisError):
        family_score_mdl(table, 0, (0,))


def test_penalty_delta_is_exact_when_likelihood_gain_is_zero():
    """Y's conditional distribution identical across X strata: pure penalty."""
    x = np.repeat([0, 1], 50)
    y = np.tile(np.repeat([0, 1, 2], [10, 15, 25]), 2)
    table = MicroTable(make_schema([2, 3]), np.column_stack([x, y]))
    n = 100
    gap = family_score_mdl(table, 1, ()) - family_score_mdl(table, 1, (0,))
    assert gap == pytest.approx(0.5 * math.log(n) * (3 - 1) * (2 - 1), abs=1e-9)


def test_network_score_decomposes():
    table = chain_table(3)
    dag = Dag(parents=((), (0,), (1,)))
    total = network_score(table, dag)
    parts = [family_score_mdl(table, i, dag.parents[i]) for i in range(3)]
    assert total == pytest.approx(sum(parts), abs=1e-9)


def compensated_sum(values):
    """sum() of floats as Python 3.12+ computes it (Neumaier's compensation)."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_network_score_adds_family_scores_in_node_order():
    """A total must not depend on the Python version. On this learned
    network a compensated sum, as sum() takes from Python 3.12 on, differs
    from the left fold in the last bit; network_score is the fold."""
    source, _ = make_transfer_benchmark(seed=0, d=12, n_source=3000, n_target=3000)
    data, _ = rank_recode(source)
    dag = learn_structure(data, seed=0)
    scores = bayesnet._family_scores(data, list(enumerate(dag.parents)))
    fold = functools.reduce(operator.add, scores)
    assert compensated_sum(scores) != fold
    assert network_score(data, dag) == fold


def test_learn_structure_constraints_and_determinism():
    table = chain_table(1)
    assert dag_edges(learn_structure(table, max_parents=0, seed=4)) == set()
    d1 = learn_structure(table, max_parents=3, seed=11)
    d2 = learn_structure(table, max_parents=3, seed=11)
    assert d1 == d2
    with pytest.raises(SynthesisError):
        learn_structure(table, max_parents=-1, seed=0)


def test_learn_structure_stops_once_no_node_grows():
    """A max_parents far past d - 1 gives the d - 1 search's DAG, and no round
    is scored after every node has stopped adding parents."""
    table = chain_table(21)
    expected = learn_structure(table, max_parents=table.schema.d - 1, seed=5)
    assert dag_edges(expected)
    scores = bayesnet._family_scores
    with mock.patch.object(bayesnet, "_family_scores", wraps=scores) as scored:
        assert learn_structure(table, max_parents=10**6, seed=5) == expected
    # The parentless families, then at most one round per parent count and
    # the round in which no node grows.
    assert scored.call_count <= 1 + table.schema.d


def test_learn_structure_scores_each_family_once():
    """No family is scored twice in one search: a round's trials each have one
    parent more than any family an earlier round scored, and a trial that
    several restarts share is scored once."""
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 3, (2000, 6))
    for j in range(2, 6):  # copies of the two columns before it, in part
        u = rng.random(2000)
        copied = np.where(u < 0.5, codes[:, j - 1], codes[:, j - 2])
        codes[:, j] = np.where(u < 0.9, copied, codes[:, j])
    table = MicroTable(make_schema([3] * 6), codes)
    scores = bayesnet._family_scores
    with mock.patch.object(bayesnet, "_family_scores", wraps=scores) as scored:
        dag = learn_structure(table, max_parents=3, seed=2)
    families = [f for call in scored.call_args_list for f in call.args[1]]
    assert len(families) == len(set(families))
    assert max(map(len, dag.parents)) >= 2 and scored.call_count >= 3


def test_learn_structure_empty_for_independent_pair():
    rng = np.random.default_rng(7)
    codes = np.column_stack([rng.integers(0, 2, 4000), rng.integers(0, 2, 4000)])
    dag = learn_structure(MicroTable(make_schema([2, 2]), codes), seed=0)
    assert dag_edges(dag) == set()


def test_learn_structure_recovers_chain_skeleton():
    dag = learn_structure(chain_table(21), max_parents=3, seed=5)
    skeleton = {tuple(sorted(e)) for e in dag_edges(dag)}
    assert skeleton == {(0, 1), (1, 2)}


def _all_dags_3():
    """Every acyclic parent assignment on 3 nodes (25 DAGs)."""
    subsets = {
        node: [
            tuple(sorted(s))
            for r in range(3)
            for s in itertools.combinations([o for o in range(3) if o != node], r)
        ]
        for node in range(3)
    }
    for combo in itertools.product(subsets[0], subsets[1], subsets[2]):
        try:
            yield Dag(parents=combo)
        except SynthesisError:
            continue


def test_greedy_score_bounded_by_exhaustive_optimum():
    assert len(list(_all_dags_3())) == 25
    for seed in range(5):
        table = random_table([2, 3, 2], 400, seed=seed)
        best = max(network_score(table, dag) for dag in _all_dags_3())
        empty = network_score(table, Dag(parents=((), (), ())))
        greedy = network_score(table, learn_structure(table, seed=seed))
        assert empty - 1e-9 <= greedy <= best + 1e-9


def sequential_greedy(data, max_parents, seed):
    """The former search, kept as an oracle: one restart after another, and
    in each one node after another, every family scored by its own
    family_score_mdl call."""
    d = data.schema.d
    scored = functools.cache(functools.partial(family_score_mdl, data))
    rng = np.random.default_rng(seed)
    best_parents = None
    best_total = -math.inf
    for _ in range(N_RESTARTS):
        order = rng.permutation(d)
        parents_by_node = [()] * d
        total = 0.0
        for pos in range(d):
            node = int(order[pos])
            predecessors = sorted(int(v) for v in order[:pos])
            current = ()
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
    return Dag(parents=best_parents)


@st.composite
def dependent_tables(draw):
    """Columns that each copy an earlier column (mod m) in a share of rows.

    Copies give the search parents to add, and exact copies give ties. With
    up to 12 categories and at most 300 rows, a family of three columns can
    pass the key budget and be counted over re-ranked keys.
    """
    d = draw(st.integers(1, 6))
    dims = [draw(st.integers(2, 12)) for _ in range(d)]
    n = draw(st.integers(1, 300))
    share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    codes = np.empty((n, d), dtype=np.int64)
    for j, m in enumerate(dims):
        codes[:, j] = rng.integers(0, m, n)
        if j:
            copied = codes[:, rng.integers(0, j)] % m
            codes[:, j] = np.where(rng.random(n) < share, copied, codes[:, j])
    return MicroTable(make_schema(dims), codes)


@settings(max_examples=80, deadline=None)
@given(dependent_tables(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_learn_structure_matches_sequential_greedy(table, max_parents, seed):
    expected = sequential_greedy(table, max_parents, seed)
    assert learn_structure(table, max_parents, seed) == expected


def counter_score(rows, dims, node, parents):
    """A family's MDL score from Counter tallies of its rows, in sorted order."""
    pair = Counter(tuple(r[p] for p in parents) + (r[node],) for r in rows)
    config = Counter(tuple(r[p] for p in parents) for r in rows)
    pair_counts = np.array([pair[k] for k in sorted(pair)])
    config_counts = np.array([config[k] for k in sorted(config)])
    loglik = float(
        np.sum(pair_counts * np.log(pair_counts))
        - np.sum(config_counts * np.log(config_counts))
    )
    q = math.prod(dims[p] for p in parents)
    return loglik - 0.5 * math.log(len(rows)) * q * (dims[node] - 1)


def test_batched_scores_equal_per_family_scores_across_chunks():
    # 500 rows give a key budget of 2,000 cells: the 1,728-cell set of the
    # three 12-category columns is one dense table whose four-family chunk
    # fills up mid-set, and any set with a fourth of them is re-ranked.
    dims = [12, 12, 12, 4, 3, 2]
    table = random_table(dims, 500, seed=8)
    families = [
        (node, parents)
        for node in range(len(dims))
        for k in range(4)
        for parents in itertools.combinations(
            [p for p in range(len(dims)) if p != node], k
        )
    ]
    np.random.default_rng(0).shuffle(families)
    with mock.patch.object(
        bayesnet, "_score_chunk", wraps=bayesnet._score_chunk
    ) as score_chunk:
        scores = bayesnet._family_scores(table, families)
    assert score_chunk.call_count >= 3
    rows = table.codes.tolist()
    assert scores == [counter_score(rows, dims, node, ps) for node, ps in families]


def test_fit_parameters_hand_case():
    table = MicroTable(
        make_schema([4]), np.array([[0]] * 2 + [[1]] * 2 + [[2]] * 4 + [[3]] * 2)
    )
    bn = fit_parameters(table, Dag(parents=((),)), alpha=0.0)
    assert np.allclose(bn.cpts[0], [[0.2, 0.2, 0.4, 0.2]])


def test_fit_parameters_smoothing():
    table = MicroTable(make_schema([2, 4]), np.array([[0, 1], [0, 2]]))
    dag = Dag(parents=((), (0,)))
    bn = fit_parameters(table, dag, alpha=1.0)
    # parent config x=1 never observed: uniform row from the smoothing formula
    assert np.allclose(bn.cpts[1][1], [0.25, 0.25, 0.25, 0.25])
    # huge alpha pushes observed rows toward uniform too
    bn_flat = fit_parameters(table, dag, alpha=1e9)
    assert np.allclose(bn_flat.cpts[1], 0.25, atol=1e-6)


def test_fit_parameters_alpha_zero_flags_unseen():
    table = MicroTable(make_schema([2, 2]), np.array([[0, 1], [0, 0]]))
    dag = Dag(parents=((), (0,)))
    with pytest.warns(UserWarning, match="unobserved"):
        bn = fit_parameters(table, dag, alpha=0.0)
    assert np.allclose(bn.cpts[1][1], [0.5, 0.5])


def test_cpt_rows_always_sum_to_one():
    for seed in range(10):
        table = random_table([2, 3, 4], 200, seed=seed)
        dag = learn_structure(table, seed=seed)
        for alpha in (0.0, 0.1, 1.0):
            bn = fit_parameters(table, dag, alpha=alpha)
            for cpt in bn.cpts:
                assert np.abs(cpt.sum(axis=1) - 1.0).max() <= 1e-12


def test_cpt_validation():
    for table, message in (
        ([[0.5, 0.6]], "sum to 1"),
        ([[np.nan, 1.0]], "sum to 1"),
        ([[-0.1, 1.1]], "nonnegative"),
    ):
        with pytest.raises(SynthesisError, match=message):
            BayesNet(schema=make_schema([2]), dag=Dag(parents=((),)), cpts=(table,))
    with pytest.raises(SynthesisError, match="shape"):
        BayesNet(
            schema=make_schema([2, 2]),
            dag=Dag(parents=((), (0,))),
            cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),
        )
    bn = BayesNet(schema=make_schema([2]), dag=Dag(parents=((),)), cpts=([[0.3, 0.7]],))
    assert bn.cpts[0].dtype == np.float64 and not bn.cpts[0].flags.writeable


def test_sample_uniform_edgeless():
    schema = make_schema([2, 2])
    bn = BayesNet(
        schema=schema,
        dag=Dag(parents=((), ())),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),
    )
    table = sample_bayesnet(bn, 100_000, np.random.default_rng(0))
    for i in range(2):
        freq = table.column(i).mean()
        assert abs(freq - 0.5) < 0.005


def test_sample_deterministic_cpts_yield_constant_rows():
    schema = make_schema([2, 3])
    bn = BayesNet(
        schema=schema,
        dag=Dag(parents=((), (0,))),
        cpts=(
            np.array([[0.0, 1.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        ),
    )
    table = sample_bayesnet(bn, 50, np.random.default_rng(3))
    assert (table.codes == [1, 2]).all()


def test_sample_chain_matches_cpt_products():
    schema = make_schema([2, 2, 2])
    pa = np.array([[0.4, 0.6]])
    pb = np.array([[0.9, 0.1], [0.2, 0.8]])
    pc = np.array([[0.7, 0.3], [0.1, 0.9]])
    bn = BayesNet(
        schema=schema,
        dag=Dag(parents=((), (0,), (1,))),
        cpts=(pa, pb, pc),
    )
    n = 100_000
    table = sample_bayesnet(bn, n, np.random.default_rng(11))
    flat = np.ravel_multi_index(tuple(table.codes.T), (2, 2, 2))
    observed = np.bincount(flat, minlength=8)
    expected = np.array(
        [
            pa[0, a] * pb[a, b] * pc[b, c]
            for a, b, c in itertools.product(range(2), repeat=3)
        ]
    )
    sigma = np.sqrt(n * expected * (1 - expected))
    assert (np.abs(observed - n * expected) <= 3 * sigma).all()
    # goodness of fit should not reject at the 1% level
    chisquare = pytest.importorskip("scipy.stats").chisquare
    assert chisquare(observed, n * expected).pvalue > 0.01


def test_sample_empty_and_determinism():
    schema = make_schema([2])
    bn = BayesNet(
        schema=schema, dag=Dag(parents=((),)), cpts=(np.array([[0.3, 0.7]]),)
    )
    assert sample_bayesnet(bn, 0, np.random.default_rng(0)).n_rows == 0
    t1 = sample_bayesnet(bn, 100, np.random.default_rng(42))
    t2 = sample_bayesnet(bn, 100, np.random.default_rng(42))
    assert (t1.codes == t2.codes).all()


def cumsum_count_sample(bn, n, rng):
    """The former sampler, kept as an oracle: an (n, m) comparison per node,
    its count clipped to the row's first and last positive shares."""
    dims = bn.schema.dims
    codes = np.zeros((n, bn.schema.d), dtype=np.int64)
    for node in bn.dag.topological_order():
        config = np.zeros(n, dtype=np.int64)
        for p in bn.dag.parents[node]:  # first parent most significant
            config = config * dims[p] + codes[:, p]
        theta = np.asarray(bn.cpts[node])
        positive = [np.flatnonzero(row > 0) for row in theta]
        first = np.array([p[0] for p in positive])[config]
        last = np.array([p[-1] for p in positive])[config]
        cum = np.cumsum(theta, axis=1)[config]
        u = rng.random(n)
        codes[:, node] = np.clip((u[:, None] > cum).sum(axis=1), first, last)
    return codes


@st.composite
def bayesnets(draw):
    """A random BN with cardinalities from 1, parents, and zero CPT entries."""
    d = draw(st.integers(1, 5))
    dims = [draw(st.integers(1, 40)) for _ in range(d)]
    parents = tuple(
        tuple(p for p in range(node) if draw(st.booleans())) for node in range(d)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    cpts = []
    for node, ps in enumerate(parents):
        q = math.prod(dims[p] for p in ps)
        theta = rng.dirichlet(np.ones(dims[node]), size=q)
        theta[rng.random(theta.shape) < 0.3] = 0.0
        theta[theta.sum(axis=1) == 0, 0] = 1.0
        cpts.append(theta / theta.sum(axis=1, keepdims=True))
    return BayesNet(schema=make_schema(dims), dag=Dag(parents=parents), cpts=tuple(cpts))


@settings(max_examples=80, deadline=None)
@given(bayesnets(), st.integers(0, 300), st.integers(0, 2**31 - 1))
def test_sample_matches_cumsum_count_oracle(bn, n, seed):
    table = sample_bayesnet(bn, n, np.random.default_rng(seed))
    expected = cumsum_count_sample(bn, n, np.random.default_rng(seed))
    np.testing.assert_array_equal(table.codes, expected)


class FixedUniforms(np.random.Generator):
    """A Generator whose random(n) returns the given values."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, n):
        assert n == len(self.values)
        return self.values.copy()


def edge_rows(m):
    """CPT rows of m categories: random shares, shares that end in zeros,
    and one-hot rows at the first, middle and last category."""
    rng = np.random.default_rng(m)
    trailing = np.zeros(m)
    trailing[: (m + 1) // 2] = rng.dirichlet(np.ones((m + 1) // 2))
    rows = [rng.dirichlet(np.ones(m)), trailing]
    for j in sorted({0, m // 2, m - 1}):
        rows.append(np.eye(m)[j])
    return rows


@pytest.mark.parametrize(
    "row",
    [[1.0], [0.5, 0.5 - 5e-13], [0.0, 0.25, 0.0, 0.75], [0.1] * 9 + [0.1 - 5e-13]]
    # category counts at and next to the sampler's padded row widths 2^k
    + [
        pytest.param(row, id=f"m{m}-{i}")
        for m in (1, 2, 3, 4, 5, 8, 9, 16, 17, 256, 257)
        for i, row in enumerate(edge_rows(m))
    ],
)
def test_sample_matches_oracle_at_share_boundaries(row):
    bn = BayesNet(
        schema=make_schema([len(row)]), dag=Dag(parents=((),)), cpts=([row],)
    )
    cum = np.cumsum(row)
    # 0, each cumulative share and its neighbours, and values past the last share
    u = np.concatenate(
        [[0.0, 1.0 - 2**-53, 1.0 - 1e-13], cum, np.nextafter(cum, 0), np.nextafter(cum, 2)]
    )
    u = u[u < 1.0]
    table = sample_bayesnet(bn, len(u), FixedUniforms(u))
    np.testing.assert_array_equal(
        table.codes, cumsum_count_sample(bn, len(u), FixedUniforms(u))
    )
    assert (np.asarray(row)[table.codes[:, 0]] > 0).all()


@pytest.mark.parametrize(
    "row, u, code",
    [
        # the row's float sum falls short of u: the trailing zero stays out
        ([0.5, 0.5 - 5e-13, 0.0], 1.0 - 1e-13, 1),
        # u = 0 is below no share: the leading zero stays out
        ([0.0, 0.5, 0.5], 0.0, 1),
    ],
)
def test_sample_never_draws_a_zero_share(row, u, code):
    bn = BayesNet(
        schema=make_schema([len(row)]), dag=Dag(parents=((),)), cpts=([row],)
    )
    assert sample_bayesnet(bn, 1, FixedUniforms([u])).codes.tolist() == [[code]]


@pytest.mark.parametrize(
    "parent_dims, m, digest",
    [
        # q = 144 configurations key as uint8, and q * m = 576 passes 255
        (
            (12, 12),
            4,
            "c6215652def2cbb317d0fa6a40872a0a0f7f245a8a534c3ff61b026786e56be1",
        ),
        # q = 65,536 configurations key as uint16, and q * m passes 65,535
        (
            (256, 256),
            3,
            "19bee0f952bcb0aab061eb7df29750c2725fcb41e8cd10fda236902765bf5ee9",
        ),
    ],
)
def test_sample_row_index_does_not_wrap_on_narrow_keys(parent_dims, m, digest):
    """Config keys come in the narrowest dtype of their range, so the row
    index config * m must be widened first; the digests were pinned from
    int64 config keys."""
    k = len(parent_dims)
    rng = np.random.default_rng(5)
    cpts = [np.full((1, p), 1.0 / p) for p in parent_dims]
    cpts.append(rng.dirichlet(np.ones(m), size=math.prod(parent_dims)))
    bn = BayesNet(
        schema=make_schema(list(parent_dims) + [m]),
        dag=Dag(parents=((),) * k + (tuple(range(k)),)),
        cpts=tuple(cpts),
    )
    table = sample_bayesnet(bn, 4000, np.random.default_rng(6))
    codes = np.ascontiguousarray(table.codes)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == digest
    np.testing.assert_array_equal(
        codes, cumsum_count_sample(bn, 4000, np.random.default_rng(6))
    )


@pytest.mark.parametrize("m", [2, 200, 257])
def test_sample_memory_does_not_grow_with_categories(m):
    n = 50_000
    bn = BayesNet(
        schema=make_schema([m, 3]),
        dag=Dag(parents=((), (0,))),
        cpts=(np.full((1, m), 1.0 / m), np.full((m, 3), 1.0 / 3)),
    )
    tracemalloc.start()
    try:
        sample_bayesnet(bn, n, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few length-n work arrays; an (n, m) comparison would need n * m * 9 bytes
    assert peak < 20 * 8 * n


def test_cpt_row_order():
    # CPT rows: parent configs in mixed-radix order, first parent most
    # significant; verify against a hand-built two-parent count
    x = np.array([0, 0, 1, 1, 0, 1])
    y = np.array([0, 1, 0, 1, 0, 1])
    z = np.array([0, 1, 1, 0, 0, 1])
    t = MicroTable(make_schema([2, 2, 2]), np.column_stack([x, y, z]))
    bn = fit_parameters(t, Dag(parents=((), (), (0, 1))), alpha=0.0)
    table = bn.cpts[2]
    # config (x=1, y=0) is row index 1*2+0=2
    sel = (x == 1) & (y == 0)
    assert table[2, 0] == pytest.approx((z[sel] == 0).mean())
    assert table[2, 1] == pytest.approx((z[sel] == 1).mean())


@st.composite
def tables_with_dags(draw):
    """A table whose parent-configuration products often pass the key budget."""
    d = draw(st.integers(1, 5))
    dims = [draw(st.integers(1, 12)) for _ in range(d)]
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    parents = tuple(
        tuple(p for p in range(node) if draw(st.booleans())) for node in range(d)
    )
    return random_table(dims, n, seed), Dag(parents=parents)


# Ten rows give a key budget of 40. Node 2's parents, 12 x 12, are re-ranked
# to at most 10 keys; its family step then stays dense at m = 2 and is
# re-ranked again at m = 12. Nodes 0 and 1 have no parents.
@example(case=(random_table([12, 12, 2], 10, 3), Dag(((), (), (0, 1)))), alpha=0.1)
@example(case=(random_table([12, 12, 12], 10, 3), Dag(((), (), (0, 1)))), alpha=0.1)
@settings(max_examples=60, deadline=None)
@given(tables_with_dags(), st.sampled_from([0.1, 1.0]))
def test_family_score_and_fit_match_counter_reference(case, alpha):
    table, dag = case
    rows = table.codes.tolist()
    dims = table.schema.dims
    for node, parents in enumerate(dag.parents):
        m = dims[node]
        q = math.prod(dims[p] for p in parents)
        pair = Counter(tuple(r[p] for p in parents) + (r[node],) for r in rows)
        config = Counter(tuple(r[p] for p in parents) for r in rows)
        pair_counts = np.array([pair[k] for k in sorted(pair)])
        config_counts = np.array([config[k] for k in sorted(config)])
        loglik = float(
            np.sum(pair_counts * np.log(pair_counts))
            - np.sum(config_counts * np.log(config_counts))
        )
        expected = loglik - 0.5 * math.log(len(rows)) * q * (m - 1)
        assert family_score_mdl(table, node, parents) == expected

        counts = np.zeros((q, m))
        keys = np.zeros(len(rows), dtype=np.int64)
        for p in parents:
            keys = keys * dims[p] + table.column(p)
        np.add.at(counts, (keys, table.column(node)), 1.0)
        theta = (counts + alpha) / (counts.sum(axis=1) + alpha * m)[:, None]
        assert np.array_equal(fit_parameters(table, dag, alpha).cpts[node], theta)
