"""The numpy code that replaced scipy in the library, checked against the
scipy calls it replaced: the sorted-key CSR against ``coo_matrix``, the
component labeller against ``csgraph.connected_components``, and the CCDF
r² of ``powerlaw_exponent`` against ``linregress``.  A subprocess check
keeps scipy out of ``import cascadelab``.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab as cl
from cascadelab import LabeledGraph, largest_connected_component
from cascadelab.graph import _component_labels

from conftest import traced_peak
from oracles import (graph_from_edges, linregress_r2, random_small_graph,
                     scipy_component_labels, scipy_csr)

KERNEL_SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def edge_graphs(draw, min_n=0, max_n=24):
    """Random edge sets: isolated nodes, several components, n = 0 or 1."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {(min(u, v), max(u, v))
                 for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return graph_from_edges(n, sorted(edges))


@st.composite
def generated_graphs(draw):
    index = draw(st.integers(0, 10_000))
    return random_small_graph(np.random.default_rng(index), index)


@st.composite
def shuffled_paths(draw):
    """A path through every node in random id order: the labeller needs
    several rounds to merge it."""
    perm = draw(st.permutations(range(draw(st.integers(2, 40)))))
    return graph_from_edges(len(perm), sorted(
        (min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])))


graphs = st.one_of(edge_graphs(), generated_graphs(), shuffled_paths())


@st.composite
def keep_masks(draw, n):
    """Keep every node, no node, or a random subset."""
    kind = draw(st.sampled_from(("all", "none", "random")))
    if kind == "random":
        return np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                          dtype=bool)
    return np.full(n, kind == "all", dtype=bool)


def big_graphs():
    return [cl.gen_security(3000, 10, 1.5, master_seed=1),
            cl.gen_pa(3000, 5, master_seed=1),
            cl.gen_er(3000, 1, master_seed=1)]


# ---- CSR ------------------------------------------------------------------------


def assert_csr_like_scipy(g):
    indptr, indices = g.csr()
    a = scipy_csr(g)
    assert indptr.dtype == indices.dtype == np.int64
    assert np.array_equal(indptr, a.indptr)
    assert np.array_equal(indices, a.indices)
    assert g.adjacency() is g.csr()


@KERNEL_SETTINGS
@given(graphs)
def test_csr_matches_scipy(g):
    assert_csr_like_scipy(g)


@pytest.mark.parametrize("g", [
    graph_from_edges(0, []), graph_from_edges(1, []), graph_from_edges(5, []),
    graph_from_edges(6, [(1, 4), (2, 3)])], ids=["n0", "n1", "no-edges",
                                                 "isolated-nodes"])
def test_csr_matches_scipy_small_cases(g):
    assert_csr_like_scipy(g)


def test_csr_matches_scipy_on_generated_graphs():
    for g in big_graphs():
        assert_csr_like_scipy(g)


def test_csr_rejects_node_counts_past_int64_keys():
    # a stand-in for a 4e9-node graph; the guard must fire before any
    # array of length n is allocated
    empty = np.empty(0, dtype=np.int64)
    huge = types.SimpleNamespace(n=4_000_000_000, edge_u=empty, edge_v=empty,
                                 cached=lambda key, build: build())
    with pytest.raises(ValueError, match="n=4000000000"):
        LabeledGraph.csr(huge)


def test_csr_holds_one_keys_array_beside_its_result():
    """The keys are written into one array that becomes the indices, so
    the build holds less than one edge column beside its result, where
    concatenated key halves held two."""
    g = cl.gen_security(20_000, 10, 1.5)
    (indptr, indices), peak = traced_peak(g.csr)
    assert peak - indptr.nbytes - indices.nbytes < g.edge_u.nbytes


# ---- components ---------------------------------------------------------------


def assert_components_like_scipy(g, keep):
    labels = _component_labels(g, keep)
    survivors = np.flatnonzero(keep)
    assert np.array_equal(labels[~keep], np.flatnonzero(~keep))
    ours = labels[survivors]
    theirs = scipy_component_labels(g, keep)
    # same partition, each part labelled by its smallest id
    _, compact = np.unique(ours, return_inverse=True)
    assert np.array_equal(compact.reshape(-1), theirs)
    smallest = np.full(theirs.max(initial=-1) + 1, g.n, dtype=np.int64)
    np.minimum.at(smallest, theirs, survivors)
    assert np.array_equal(ours, smallest[theirs])


@KERNEL_SETTINGS
@given(st.data())
def test_component_labels_match_scipy(data):
    g = data.draw(graphs)
    assert_components_like_scipy(g, data.draw(keep_masks(g.n)))


@KERNEL_SETTINGS
@given(st.data())
def test_lcc_is_the_largest_scipy_component_with_smallest_id(data):
    g = data.draw(graphs)
    keep = data.draw(keep_masks(g.n))
    survivors = np.flatnonzero(keep)
    theirs = scipy_component_labels(g, keep)
    expect = survivors[:0]
    if survivors.size:
        sizes = np.bincount(theirs)
        # csgraph numbers components by their smallest id, in id order
        expect = survivors[theirs == np.argmax(sizes)]
    got = largest_connected_component(g, excluded=np.flatnonzero(~keep))
    assert np.array_equal(got, expect)


def test_component_labels_match_scipy_on_generated_graphs():
    rng = np.random.default_rng(7)
    for g in big_graphs():
        for p in (0.0, 0.3, 0.7, 1.0):
            assert_components_like_scipy(g, rng.random(g.n) >= p)


def test_component_labels_isolated_survivors():
    g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    keep = np.array([1, 0, 1, 1, 0, 1, 1], dtype=bool)
    assert _component_labels(g, keep).tolist() == [0, 1, 2, 2, 4, 5, 6]
    assert_components_like_scipy(g, keep)


def test_component_labels_first_round_hooks_each_edge_to_its_smaller_end(
        monkeypatch):
    """Labels start as ids and every edge has u < v, so the first round
    hooks each v to its least neighbour u: stars centred on their smallest
    ids are labelled in that one round, and the next hooks nothing."""
    g = graph_from_edges(9, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 8), (6, 7)])
    rounds = []

    class Minimum:  # np.minimum, counting the edges of each hooking round
        __call__ = staticmethod(np.minimum)

        def at(self, labels, at, values):
            rounds.append(len(at))
            np.minimum.at(labels, at, values)

    monkeypatch.setattr(cl.graph, "np", types.SimpleNamespace(
        **{**vars(np), "minimum": Minimum()}))
    labels = _component_labels(g, np.ones(g.n, dtype=bool))
    assert labels.tolist() == [0, 0, 0, 0, 4, 4, 6, 6, 4]
    assert rounds == [6]


def test_component_labels_hold_less_than_an_edge_column(security_big):
    """Every round runs over slices of _CHUNK edges and copies no edge
    column, so with a few nodes removed the labelling holds less than one
    edge column beside its labels."""
    keep = np.ones(security_big.n, dtype=bool)
    keep[cl.top_degree_nodes(security_big, 12)] = False
    labels, peak = traced_peak(lambda: _component_labels(security_big, keep))
    assert peak - labels.nbytes < security_big.edge_u.nbytes
    assert_components_like_scipy(security_big, keep)


# ---- power-law CCDF r² ---------------------------------------------------------


def test_powerlaw_r2_bit_equal_to_linregress():
    rng = np.random.default_rng(12)
    for _ in range(250):
        d_min = int(rng.integers(1, 20))
        size = int(rng.integers(100, 3000))
        if rng.random() < 0.5:
            tail = d_min + rng.zipf(rng.uniform(1.5, 3.5), size) - 1
        else:
            tail = d_min + rng.geometric(rng.uniform(0.02, 0.9), size) - 1
        tail[:2] = d_min, d_min + 1  # never all equal
        fit = cl.powerlaw_exponent(tail, d_min)
        values, counts = np.unique(tail.astype(np.float64), return_counts=True)
        ccdf = counts[::-1].cumsum()[::-1] / tail.size
        r2 = linregress_r2(np.log(values), np.log(ccdf))
        assert fit.ccdf_r2 == r2


# ---- import guard ---------------------------------------------------------------


@pytest.mark.parametrize("module", ["cascadelab", "cascadelab.cli"])
def test_import_leaves_scipy_unloaded(module):
    code = (f"import sys, {module}; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    src = str(Path(cl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
