import hashlib

import numpy as np
import pytest

from cascadelab import (EdgeTag, GraphFormatError, LabeledGraph, deserialize,
                        gen_security, generate, largest_connected_component,
                        serialize)


def complete_graph(k):
    return LabeledGraph.from_edges(
        k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle_graph(k):
    return LabeledGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves):
    return LabeledGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


# ---- degree -----------------------------------------------------------------

def test_degree_complete_graph():
    g = complete_graph(4)
    assert all(g.degree(v) == 3 for v in range(4))


def test_degree_single_node():
    g = LabeledGraph.from_edges(1, [])
    assert g.degree(0) == 0


def test_degree_cycle():
    g = cycle_graph(4)
    assert all(g.degree(v) == 2 for v in range(4))


def test_degree_out_of_range():
    g = cycle_graph(4)
    with pytest.raises(IndexError):
        g.degree(4)
    with pytest.raises(IndexError):
        g.degree(-1)


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
        LabeledGraph.from_edges(3, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        LabeledGraph.from_edges(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        LabeledGraph.from_edges(3, [(0, 3)])


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
    g = LabeledGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
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
    g = LabeledGraph.from_edges(0, [])
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
