"""MDL scoring, structure search, parameter fitting, and sampling."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from copulasynth import (
    MicroTable,
    SynthesisError,
    fit_parameters,
    learn_structure,
    sample_bayesnet,
)
from copulasynth.bayesnet import (
    BayesNet,
    Dag,
    family_score_mdl,
    network_score,
)
from conftest import make_schema, random_table


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


def test_learn_structure_constraints_and_determinism():
    table = chain_table(1)
    assert learn_structure(table, max_parents=0, seed=4).edges() == set()
    d1 = learn_structure(table, max_parents=3, seed=11)
    d2 = learn_structure(table, max_parents=3, seed=11)
    assert d1 == d2
    with pytest.raises(SynthesisError):
        learn_structure(table, max_parents=-1, seed=0)


def test_learn_structure_empty_for_independent_pair():
    rng = np.random.default_rng(7)
    codes = np.column_stack([rng.integers(0, 2, 4000), rng.integers(0, 2, 4000)])
    dag = learn_structure(MicroTable(make_schema([2, 2]), codes), seed=0)
    assert dag.edges() == set()


def test_learn_structure_recovers_chain_skeleton():
    dag = learn_structure(chain_table(21), max_parents=3, seed=5)
    skeleton = {tuple(sorted(e)) for e in dag.edges()}
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
