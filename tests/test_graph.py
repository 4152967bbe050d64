import hashlib

import numpy as np
import pytest

from cascadelab import (EdgeTag, GraphFormatError, LabeledGraph, deserialize,
                        gen_security, generate, largest_connected_component,
                        serialize)

from oracles import graph_from_edges


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
        for w in g.neighbors(v):
            assert v in g.neighbors(int(w))


# ---- construction validation --------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges(3, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edges(3, [(0, 1), (1, 0)])


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
    with pytest.raises(IndexError):
        largest_connected_component(complete_graph(3), excluded={7})


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
