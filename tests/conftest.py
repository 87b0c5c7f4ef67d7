"""Shared table builders and hypothesis strategies."""

import hypothesis.strategies as st
import numpy as np

from copulasynth import MicroTable, Schema, VariableSpec, srmse_projected


def make_schema(dims, kinds=None, prefix="v"):
    if kinds is None:
        kinds = ["categorical"] * len(dims)
    return Schema(
        tuple(
            VariableSpec(
                name=f"{prefix}{i}",
                labels=tuple(str(j) for j in range(m)),
                kind=kinds[i],
            )
            for i, m in enumerate(dims)
        )
    )


def random_table(dims, n, seed, kinds=None):
    rng = np.random.default_rng(seed)
    codes = np.column_stack([rng.integers(0, m, n) for m in dims])
    return MicroTable(make_schema(dims, kinds), codes)


def subset_srmse(ref, syn, subset):
    """SRMSE of one subset, through srmse_projected on the subset's columns.

    A table of |S| columns has one subset of size |S|, and its keys are
    built over the columns in subset order.
    """
    subset = list(subset)
    schema = Schema(tuple(ref.schema.variables[i] for i in subset))
    project = lambda t: MicroTable(schema, t.codes[:, subset])
    return srmse_projected(project(ref), project(syn), len(subset))


def dag_edges(dag):
    """The (parent, child) pairs of a DAG."""
    return {(p, node) for node, ps in enumerate(dag.parents) for p in ps}


def dense(table):
    """Scatter a contingency table's cells into its full category grid."""
    grid = np.zeros(table.schema.dims)
    grid[tuple(table.cells.codes.T)] = table.values
    return grid


@st.composite
def small_tables(draw, max_d=4, max_m=4, min_n=1, max_n=50):
    d = draw(st.integers(1, max_d))
    dims = [draw(st.integers(2, max_m)) for _ in range(d)]
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    codes = np.column_stack([rng.integers(0, m, n) for m in dims])
    return MicroTable(make_schema(dims), codes)


@st.composite
def table_pairs(draw, max_d=4, max_m=4, max_n=50):
    """Two tables over one shared schema."""
    d = draw(st.integers(1, max_d))
    dims = [draw(st.integers(2, max_m)) for _ in range(d)]
    schema = make_schema(dims)
    out = []
    for _ in range(2):
        n = draw(st.integers(1, max_n))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        out.append(
            MicroTable(schema, np.column_stack([rng.integers(0, m, n) for m in dims]))
        )
    return out[0], out[1]
