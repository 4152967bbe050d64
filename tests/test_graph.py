import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import (EdgeTag, GraphFormatError, LabeledGraph, communities,
                        deserialize, gen_security, generate,
                        largest_connected_component, serialize)
from cascadelab.graph import _gather_neighbors
from cascadelab.structure import _community_layout, intra_color_adjacency

from oracles import graph_from_edges, neighbors


def complete_graph(k):
    return graph_from_edges(
        k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle_graph(k):
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves):
    return graph_from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


# ---- degree -----------------------------------------------------------------

def test_degree_complete_graph():
    g = complete_graph(4)
    assert all(g.degrees[v] == 3 for v in range(4))


def test_degree_single_node():
    g = graph_from_edges(1, [])
    assert g.degrees[0] == 0


def test_degree_cycle():
    g = cycle_graph(4)
    assert all(g.degrees[v] == 2 for v in range(4))


def test_edge_count_is_half_degree_sum():
    g = gen_security(500, 4, 1.5, master_seed=3)
    assert g.degrees.sum() == 2 * g.m


def test_adjacency_symmetry():
    g = gen_security(500, 4, 1.5, master_seed=3)
    for v in (0, 5, 100, 499):
        for w in neighbors(g, v):
            assert v in neighbors(g, int(w))


# ---- read-only arrays ----------------------------------------------------------

def _one_row(g):
    indptr, indices = g.csr()
    return _gather_neighbors(indptr, indices, np.array([0]))


@pytest.mark.parametrize("array", [
    lambda g: g.color, lambda g: g.is_seed, lambda g: g.birth_time,
    lambda g: g.edge_u, lambda g: g.edge_v, lambda g: g.edge_tag,
    lambda g: g.degrees, largest_connected_component, _one_row,
    lambda g: g.csr()[0], lambda g: intra_color_adjacency(g)[1],
    lambda g: _community_layout(g).index, lambda g: communities(g)[0].members,
], ids=["color", "is_seed", "birth_time", "edge_u", "edge_v", "edge_tag",
        "degrees", "lcc", "one-row", "indptr", "intra-color", "layout",
        "members"])
def test_graph_arrays_refuse_writes(array):
    """The graph's arrays and every array it caches are read-only, so no
    caller can change what later queries read."""
    g = gen_security(3000, 5, 1.5, master_seed=1)
    with pytest.raises(ValueError, match="read-only"):
        array(g)[:] = 1


def test_constructor_leaves_the_callers_arrays_writeable():
    color, u = np.zeros(3, dtype=np.int64), np.array([0, 1], dtype=np.int64)
    g = LabeledGraph(3, color, np.zeros(3, bool), np.arange(3), u,
                     np.array([1, 2]), np.full(2, EdgeTag.PLAIN))
    color[0], u[0] = 4, 1  # still the caller's to write
    assert not g.color.flags.writeable and not g.edge_u.flags.writeable


# ---- construction validation --------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges(3, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edges(3, [(0, 1), (1, 0)])


@st.composite
def edge_lists(draw):
    """Distinct pairs u != v in either orientation, each with a tag, and
    sometimes one pair listed twice."""
    n = draw(st.integers(2, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=120))
    if pairs and draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs))[::-1])
    tags = draw(st.lists(st.integers(0, len(EdgeTag) - 1), min_size=len(pairs),
                         max_size=len(pairs)))
    return n, pairs, tags


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_canonical_edge_order_is_lexsort_order(case):
    n, pairs, tags = case
    u, v = (np.array([e[i] for e in pairs], dtype=np.int64) for i in (0, 1))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    dup = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    args = (n, np.zeros(n), np.zeros(n, bool), np.arange(n), u, v, np.array(tags))
    if dup.any():
        i = order[np.flatnonzero(dup)[0]]
        with pytest.raises(ValueError, match=rf"duplicate edge \({lo[i]}, {hi[i]}\)"):
            LabeledGraph(*args)
        return
    g = LabeledGraph(*args)
    assert np.array_equal(g.edge_u, lo[order])
    assert np.array_equal(g.edge_v, hi[order])
    assert np.array_equal(g.edge_tag, np.array(tags, dtype=np.uint8)[order])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_edges(3, [(0, 3)])


def _columns(**over):
    """The constructor arguments of a 3-node path, with some replaced."""
    cols = dict(n=3, color=[0, 0, 0], is_seed=[0, 0, 0], birth_time=[0, 1, 2],
                edge_u=[0, 1], edge_v=[1, 2], edge_tag=[4, 4])
    cols.update(over)
    return cols


@pytest.mark.parametrize("over, message", [
    (dict(n=-1, color=[], is_seed=[], birth_time=[], edge_u=[], edge_v=[],
          edge_tag=[]), "node count must be non-negative"),
    (dict(color=[0, 0]), "color must have length n=3"),
    (dict(is_seed=[0, 0, 0, 0]), "is_seed must have length n=3"),
    (dict(birth_time=[0]), "birth_time must have length n=3"),
    (dict(edge_v=[1]), "edge arrays must have equal length"),
    (dict(edge_tag=[4]), "edge arrays must have equal length"),
    (dict(edge_tag=[4, len(EdgeTag)]), "unknown edge tag"),
    (dict(color=[0, -1, 0]), "colors must be non-negative"),
    (dict(birth_time=[0, -1, 2]), "birth times must be non-negative"),
], ids=["n", "color", "is_seed", "birth_time", "edge_v", "edge_tag",
        "tag-value", "color-value", "birth-value"])
def test_constructor_rejections(over, message):
    with pytest.raises(ValueError, match=message):
        LabeledGraph(**_columns(**over))
    LabeledGraph(**_columns())  # the unchanged columns are accepted


# ---- largest connected component ----------------------------------------------

def test_lcc_cycle_minus_one_node():
    g = cycle_graph(4)
    assert largest_connected_component(g, excluded={0}).tolist() == [1, 2, 3]


def test_lcc_star_minus_center_tie_rule():
    g = star_graph(4)
    # removing the center leaves 4 singleton components; smallest id wins
    assert largest_connected_component(g, excluded={0}).tolist() == [1]


def test_lcc_connected_graph_whole():
    g = complete_graph(5)
    assert largest_connected_component(g).tolist() == list(range(5))


def test_lcc_empty_remainder():
    g = complete_graph(3)
    assert largest_connected_component(g, excluded={0, 1, 2}).size == 0


def test_lcc_deterministic():
    g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
    first = largest_connected_component(g, excluded={1})
    second = largest_connected_component(g, excluded={1})
    # {2,3} and {4,5} tie at size 2; the one containing node 2 wins
    assert first.tolist() == [2, 3]
    assert np.array_equal(first, second)


def test_lcc_rejects_bad_excluded_id():
    for bad in (7, 3, -1):
        with pytest.raises(IndexError, match="excluded set.*out of range"):
            largest_connected_component(complete_graph(3), excluded={bad})


def test_equal_graphs_hash_equal():
    a = generate("er", 30, 3, master_seed=2)
    b = generate("er", 30, 3, master_seed=2)
    other = generate("er", 30, 3, master_seed=3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and len({a, b, other}) == 2
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"} and table[b] == "second"


def test_graph_never_equals_a_non_graph():
    g = complete_graph(3)
    assert g.__eq__((g.n, g.edge_u, g.edge_v)) is NotImplemented
    assert g != (g.n, g.edge_u, g.edge_v)


@pytest.mark.parametrize("ids", [
    [1.5, 2.9], (0.0,), np.array([0.9]), np.array([True, False]), [True],
    ["1"]], ids=["floats", "integral-float", "float-array", "bool-array",
                 "bool", "string"])
def test_node_ids_refuse_non_integers(ids):
    g = star_graph(3)
    with pytest.raises(TypeError, match="excluded set holds a non-integer"):
        largest_connected_component(g, excluded=ids)


@pytest.mark.parametrize("ids", [
    [1, 2], (2, 1), {1, 2}, range(1, 3), np.array([2, 1], dtype=np.int32),
    np.array([1, 2], dtype=np.uint8), (np.int64(1), np.int16(2)),
    (x for x in (1, 2, 2))], ids=["list", "tuple", "set", "range", "int32",
                                  "uint8", "numpy-scalars", "generator"])
def test_node_ids_take_integer_inputs(ids):
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert largest_connected_component(g, excluded=ids).tolist() == [3, 4]


@pytest.mark.parametrize("ids", [[], (), set(), range(0), np.array([]),
                                 np.array([], dtype=np.int64)])
def test_node_ids_take_empty_inputs(ids):
    lcc = largest_connected_component(cycle_graph(4), excluded=ids)
    assert lcc.tolist() == [0, 1, 2, 3]


# ---- serialization -------------------------------------------------------------

def test_roundtrip_empty_graph():
    g = graph_from_edges(0, [])
    data = serialize(g)
    assert data == b"cascadelab-graph v1 0 0\n"
    assert deserialize(data) == g


def test_roundtrip_initial_complete_graph():
    k = 5
    g = LabeledGraph(
        k,
        np.arange(k), np.ones(k, bool), np.arange(k),
        *map(np.asarray, zip(*[(i, j) for i in range(k)
                               for j in range(i + 1, k)])),
        np.full(k * (k - 1) // 2, int(EdgeTag.INITIAL), np.uint8))
    back = deserialize(serialize(g))
    assert back == g
    assert (back.edge_tag == int(EdgeTag.INITIAL)).all()


def test_security_graph_byte_identical_reserialization():
    g = gen_security(1000, 6, 1.5, master_seed=11)
    data = serialize(g)
    again = serialize(deserialize(data))
    assert data == again
    assert deserialize(data) == g


# SHA-256 of serialize(generate(model, 2000, 10, a, master_seed=seed)), taken
# before the bulk writer replaced the per-line one.  A change here means the
# generators' output or the file bytes changed.
GOLDEN_SHA256 = {
    ("er", 1): "d78401886d3255688133d5e06796b9dc436af1f341e2b304b551b207d7041779",
    ("er", 2): "70ee7b81606b80d4046d3027d02819a0e899db46a9960509e42cac701fc4cc4a",
    ("pa", 1): "750831ee422656d57650451954cb97f46d4f7081ad35730b93e224f846706b18",
    ("pa", 2): "2eae1521c4061171de45730154bed75a0e89a965f0098c3dbfc26da044704314",
    ("security", 1):
        "4f33ba14ee1c955b92d872e5111e1652807d82dba99a0d441ffc0b23b469dec8",
    ("security", 2):
        "2773f453a27c447c34c165ff9de0510ca3352b58a7cfa25653535d15dfdf7e39",
}


@pytest.mark.parametrize("model,seed", sorted(GOLDEN_SHA256))
def test_generated_graph_golden_hash(model, seed):
    a = 1.5 if model == "security" else None
    data = serialize(generate(model, 2000, 10, a, master_seed=seed))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[model, seed]
    assert serialize(deserialize(data)) == data


# SHA-256 of serialize(generate(model, n, d, a, master_seed=seed)) at more
# (model, n, d, a) points: fig3's d for security, a seed-heavy security graph
# (d=2, a=1.1) and d of 1 and 5 for pa and er.  Taken before the generators
# moved onto the replayed RNG stream.
GOLDEN_SHA256_MORE = {
    ("security", 20000, 5, 1.5, 1):
        "ab70c708287ebd8ea572acd8ad7ef2e993464aaa66acb993510791b9f34e57c1",
    ("security", 20000, 5, 1.5, 2):
        "4c0fae78befbc6c9c9390c1f5230584274ebcb616e5cd8ad4fdfb79da88b6d38",
    ("security", 3000, 2, 1.1, 1):
        "bfdefd7ab9a2a0012992b915161384107595cf100746d8e3bc4036aaabddbf5d",
    ("security", 3000, 2, 1.1, 2):
        "3b90affbaee7ad442aa5be507304313755a716a1c4ec9dc347b27bcada919b43",
    ("pa", 2000, 1, None, 1):
        "01620a643ef470d41cc1943f1fa4a17a4e8849ab279368a8a245c38c210ff33e",
    ("pa", 2000, 1, None, 2):
        "5f76ea82768be631658ac214e2c436bbcab5dd85ffae209bcf0f5923d3f751cf",
    ("pa", 2000, 5, None, 1):
        "54d6ff3dee298eea8de32f3b0eed7ffe9c4e90fbea91c5ab099c6f3a1da41657",
    ("pa", 2000, 5, None, 2):
        "b738cdcf2034da244cc64e39bd6e91bfaede1975ee717d06d5b4a3d03bb9340c",
    ("er", 2000, 1, None, 1):
        "4c887555fa64d8def9e2b7c26893369cae7c33a51c4eade7424d278910fa353f",
    ("er", 2000, 1, None, 2):
        "ccab34a0dd9b625bc5f839403692e29a1bc36e4fe8918655eea86edc82650950",
    ("er", 2000, 5, None, 1):
        "c0ffbb59e353b61aa14596fef14b743b0c931b023aa52f3c76b48aa46bd0dfc2",
    ("er", 2000, 5, None, 2):
        "e2457c691a0b30ac6403111ae0f1e598354d71042d38e5bb07f7601b71f75e2f",
    # 29 and 125 Lemire rejections: the per-draw rejection path runs
    ("pa", 100_000, 5, None, 1):
        "b8e40556392c54ea5998faba2a0006b176397563b3c27f6800dc544db557006e",
    ("pa", 100_000, 10, None, 2):
        "35661ec28cb110bc8360e83280ea638d38861bd4e8309f0a964d8a3a5a584233",
}


@pytest.mark.parametrize("model,n,d,a,seed", sorted(GOLDEN_SHA256_MORE, key=str))
def test_generated_graph_golden_hash_more(model, n, d, a, seed):
    data = serialize(generate(model, n, d, a, master_seed=seed))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256_MORE[model, n, d, a, seed]


def test_header_errors():
    with pytest.raises(GraphFormatError, match="line 1"):
        deserialize(b"bogus v1 0 0\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        deserialize(b"cascadelab-graph v2 0 0\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        deserialize(b"cascadelab-graph v1 x 0\n")
    with pytest.raises(GraphFormatError):
        deserialize(b"")


def test_dangling_endpoint_names_line():
    text = ("cascadelab-graph v1 2 1\n"
            "N 0 0 0 0\n"
            "N 1 0 0 1\n"
            "E 0 5 PLAIN\n")
    with pytest.raises(GraphFormatError, match="line 4.*dangling"):
        deserialize(text.encode())


def test_duplicate_edge_names_line():
    text = ("cascadelab-graph v1 2 2\n"
            "N 0 0 0 0\n"
            "N 1 0 0 1\n"
            "E 0 1 PLAIN\n"
            "E 0 1 PLAIN\n")
    with pytest.raises(GraphFormatError, match="line 5.*duplicate"):
        deserialize(text.encode())


def test_unsorted_edges_rejected():
    text = ("cascadelab-graph v1 3 2\n"
            "N 0 0 0 0\nN 1 0 0 1\nN 2 0 0 2\n"
            "E 1 2 PLAIN\n"
            "E 0 1 PLAIN\n")
    with pytest.raises(GraphFormatError, match="canonical"):
        deserialize(text.encode())


def test_reversed_endpoints_rejected():
    text = ("cascadelab-graph v1 2 1\n"
            "N 0 0 0 0\nN 1 0 0 1\n"
            "E 1 0 PLAIN\n")
    with pytest.raises(GraphFormatError, match="u < v"):
        deserialize(text.encode())


def test_unknown_provenance_rejected():
    text = ("cascadelab-graph v1 2 1\n"
            "N 0 0 0 0\nN 1 0 0 1\n"
            "E 0 1 WIBBLE\n")
    with pytest.raises(GraphFormatError, match="provenance"):
        deserialize(text.encode())


def test_wrong_line_count_rejected():
    text = ("cascadelab-graph v1 2 1\n"
            "N 0 0 0 0\nN 1 0 0 1\n")
    with pytest.raises(GraphFormatError, match="expected 4 lines"):
        deserialize(text.encode())


def test_node_order_enforced():
    text = ("cascadelab-graph v1 2 0\n"
            "N 1 0 0 1\nN 0 0 0 0\n")
    with pytest.raises(GraphFormatError, match="sorted by id"):
        deserialize(text.encode())
