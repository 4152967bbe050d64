import math
import tracemalloc

import numpy as np
import pytest

from cascadelab import (EdgeTag, LabeledGraph, attachment_probability,
                        expected_seed_count, gen_er, gen_pa, gen_security,
                        generate, serialize)
from cascadelab import generators

from conftest import traced_peak


# ---- parameter validation ------------------------------------------------------

def test_generator_parameter_validation():
    gen_security(100, 4, 1.5)
    with pytest.raises(ValueError):
        gen_pa(4, 4)                 # n < d + 1
    with pytest.raises(ValueError):
        gen_pa(10, 0)                # d must be at least 1
    with pytest.raises(ValueError):
        gen_security(10, 2, 1.0)     # a must exceed 1


@pytest.mark.parametrize("make,name", [
    (lambda: gen_er(10, 0.5), "d"),
    (lambda: gen_er(10.0, 3), "n"),
    (lambda: gen_pa(50, 2.5), "d"),
    (lambda: gen_security(50, 3.5, 1.5), "d"),
    (lambda: gen_security(50.0, 4, 1.5), "n"),
])
def test_generators_refuse_non_integer_n_and_d(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make()


def test_er_refuses_negative_d():
    with pytest.raises(ValueError,
                       match="^d must be an integer of at least 0, got -3"):
        gen_er(10, -3)
    assert gen_er(10, 0).m == 0


def test_generators_take_numpy_integers():
    assert gen_er(np.int64(50), np.int64(3)) == gen_er(50, 3)
    assert gen_pa(np.int64(50), np.int32(3)) == gen_pa(50, 3)


def test_attachment_probability():
    assert attachment_probability(2, 1.5) == 1.0   # ln 2 < 1 -> capped
    ps = [attachment_probability(i, 1.5) for i in range(3, 200)]
    assert all(0 < p <= 1 for p in ps)
    assert all(a >= b for a, b in zip(ps, ps[1:]))  # non-increasing


# ---- Erdős–Rényi ---------------------------------------------------------------

def test_er_p_one_gives_complete_graph():
    g = gen_er(4, 3, master_seed=0)
    assert g.m == 6
    assert all(g.degrees[v] == 3 for v in range(4))
    assert (g.edge_tag == int(EdgeTag.PLAIN)).all()


def test_er_single_node():
    g = gen_er(1, 1, master_seed=0)
    assert g.n == 1 and g.m == 0


def test_er_rejects_p_above_one():
    with pytest.raises(ValueError):
        gen_er(10, 10, master_seed=0)


def test_er_metadata():
    g = gen_er(50, 3, master_seed=5)
    assert not g.is_seed.any()
    assert (g.color == 0).all()
    assert np.array_equal(g.birth_time, np.arange(50))


def test_er_mean_degree_band():
    # expected average degree d; binomial concentration over 10 runs
    means = []
    for seed in range(10):
        g = gen_er(10_000, 10, master_seed=seed)
        means.append(2 * g.m / g.n)
    assert all(9.5 <= m <= 10.5 for m in means)


def test_er_edge_count_within_5_sigma():
    n, d = 2_000, 8
    p = d / (n - 1)
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in (1, 2, 3):
        g = gen_er(n, d, master_seed=seed)
        assert abs(g.m - mean) <= 5 * sigma


# ---- preferential attachment -----------------------------------------------------

def test_pa_initial_graph_is_complete():
    g = gen_pa(5, 4, master_seed=0)
    assert g.m == 10
    assert all(g.degrees[v] == 4 for v in range(5))


def test_pa_edge_count_formula():
    n, d = 200, 3
    g = gen_pa(n, d, master_seed=9)
    assert g.m == d * (d + 1) // 2 + d * (n - d - 1)


def test_pa_rejects_small_n():
    with pytest.raises(ValueError):
        gen_pa(3, 3, master_seed=0)


# ---- security model ---------------------------------------------------------------

def test_security_initial_graph():
    g = gen_security(5, 4, 1.5, master_seed=0)
    assert g.m == 10
    assert g.is_seed.all()
    assert sorted(g.color.tolist()) == [0, 1, 2, 3, 4]
    assert (g.edge_tag == int(EdgeTag.INITIAL)).all()


def test_security_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_security(10, 1, 1.5)     # d < 2
    with pytest.raises(ValueError):
        gen_security(10, 4, 1.0)     # a <= 1
    with pytest.raises(ValueError):
        gen_security(4, 4, 1.5)      # n < d + 1


def _birth_edges(g, v):
    """Edges created at node v's birth step: those whose larger endpoint is v."""
    return np.flatnonzero(g.edge_v == v)


def test_security_structural_invariants():
    d = 6
    g = gen_security(4_000, d, 1.5, master_seed=21)
    tags = g.edge_tag
    colors = g.color
    seeds = g.is_seed

    # SEED_LINK edges join two seeds; HOMOPHYLY edges join one color
    sl = tags == int(EdgeTag.SEED_LINK)
    assert (seeds[g.edge_u[sl]] & seeds[g.edge_v[sl]]).all()
    ho = tags == int(EdgeTag.HOMOPHYLY)
    assert (colors[g.edge_u[ho]] == colors[g.edge_v[ho]]).all()

    # distinct colors == seed count; exactly one seed per color
    n_seeds = int(seeds.sum())
    assert len(set(colors.tolist())) == n_seeds
    assert len(set(colors[seeds].tolist())) == n_seeds

    # per-node birth edges: non-initial seeds get exactly one PA_GLOBAL and
    # at most d-1 SEED_LINKs; non-seeds get 1..d HOMOPHYLY edges to their color
    pa_total = 0
    for v in range(d + 1, g.n):
        idx = _birth_edges(g, v)
        birth_tags = tags[idx]
        if seeds[v]:
            assert (birth_tags == int(EdgeTag.PA_GLOBAL)).sum() == 1
            n_links = (birth_tags == int(EdgeTag.SEED_LINK)).sum()
            assert 0 <= n_links <= d - 1
            assert len(idx) == 1 + n_links
            pa_total += 1
        else:
            assert (birth_tags == int(EdgeTag.HOMOPHYLY)).all()
            assert 1 <= len(idx) <= d
            assert (colors[g.edge_u[idx]] == colors[v]).all()
    # total PA_GLOBAL count equals the number of non-initial seeds
    assert (tags == int(EdgeTag.PA_GLOBAL)).sum() == pa_total == n_seeds - (d + 1)


def test_security_columns_reach_the_graph_older_endpoint_first(monkeypatch):
    """gen_security hands LabeledGraph contiguous columns with u < v on
    every edge, so the constructor swaps no endpoint; the graph is the
    same."""
    handed = []
    real = generators.LabeledGraph

    def spy(n, color, is_seed, birth_time, edge_u, edge_v, edge_tag):
        handed.append((edge_u, edge_v))
        return real(n, color, is_seed, birth_time, edge_u, edge_v, edge_tag)

    expected = gen_security(3_000, 5, 1.5, master_seed=4)
    monkeypatch.setattr(generators, "LabeledGraph", spy)
    assert gen_security(3_000, 5, 1.5, master_seed=4) == expected
    (u, v), = handed
    assert u.flags.c_contiguous and v.flags.c_contiguous
    assert (u < v).all()


def test_security_seed_count_tracks_expectation():
    n, d, a = 30_000, 10, 1.5
    expected = expected_seed_count(n, d, a) - (d + 1)
    for seed in (1, 2):
        g = gen_security(n, d, a, master_seed=seed)
        observed = int(g.is_seed.sum()) - (d + 1)
        assert 0.7 * expected <= observed <= 1.3 * expected


# ---- determinism -------------------------------------------------------------------

@pytest.mark.parametrize("model,a", [("er", None), ("pa", None), ("security", 1.5)])
def test_generation_deterministic(model, a):
    g1 = generate(model, 600, 5, a, master_seed=77)
    g2 = generate(model, 600, 5, a, master_seed=77)
    assert serialize(g1) == serialize(g2)
    g3 = generate(model, 600, 5, a, master_seed=78)
    assert serialize(g1) != serialize(g3)


def test_generate_dispatch_errors():
    with pytest.raises(ValueError):
        generate("wat", 10, 2)
    with pytest.raises(ValueError):
        generate("security", 10, 2)  # missing a


def test_gen_security_hands_over_its_edges_without_a_second_copy(monkeypatch):
    """From the endpoint buffer to the graph, gen_security adds less than
    one copy of the (u, v) columns: one key array, sorted and decoded in
    place, where copied columns and the constructor's argsort took four."""
    edges, held = generators._edges, []

    def edges_after_the_loop(ends):  # the hand-over's peak counts from here
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return edges(ends)

    monkeypatch.setattr(generators, "_edges", edges_after_the_loop)
    g, peak = traced_peak(lambda: gen_security(50_000, 10, 1.5))
    assert len(held) == 1
    assert peak - held[0] < g.edge_u.nbytes + g.edge_v.nbytes


@pytest.mark.parametrize("generate", [gen_er, gen_pa])
def test_er_and_pa_hand_over_their_edges_as_one_sorted_key(generate):
    """Above the graph it returns, ER or PA generation holds less than half
    a copy of the (u, v) columns at any time: one key array u * n + v,
    sorted in place, whose memory becomes u, with PA's endpoint buffer
    dropped before the sort.  Copied columns and the constructor's argsort
    held more than 2.5 copies."""
    generate(1_000, 10)  # what a first call sets up once is not the hand-over's
    g, peak = traced_peak(lambda: generate(50_000, 10))
    graph = sum(x.nbytes for x in (g.color, g.is_seed, g.birth_time,
                                   g.edge_u, g.edge_v, g.edge_tag))
    assert peak - graph < (g.edge_u.nbytes + g.edge_v.nbytes) / 2


@pytest.mark.parametrize("make", [
    lambda: gen_er(3_000, 10, 1), lambda: gen_er(40, 39, 2),
    lambda: gen_pa(3_000, 10, 1), lambda: gen_security(3_000, 10, 1.5, 1)],
    ids=["er", "er-complete", "pa", "security"])
def test_generators_hand_the_constructor_canonical_edges(monkeypatch, make):
    """Every generator sorts its edges itself, so the constructor's argsort
    never runs on a generated graph."""
    handed = []

    def constructor(n, color, is_seed, birth_time, u, v, tag):
        handed.append(((u < v).all(), (np.diff(u * n + v) > 0).all()))
        return LabeledGraph(n, color, is_seed, birth_time, u, v, tag)

    monkeypatch.setattr(generators, "LabeledGraph", constructor)
    g = make()
    assert handed == [(True, True)] and g.m > 0
