import math

import numpy as np
import pytest

import cascadelab as cl
from cascadelab import (LabeledGraph, communities,
                        community_conductances, community_diameters,
                        conductance, distance_stats,
                        infection_priority_tree, navigate, powerlaw_exponent)
from cascadelab.structure import (degree_priority_summary, pair_distances,
                                  sample_lcc_pairs)

from frozen_constants import (COND_C, COND_BETA, DIAM_C, DIST_C2, HEIGHT_C3,
                              SIZE_C1)
from oracles import degree_profile, dict_navigate, graph_from_edges


def colored_graph(n, edges, colors, seeds):
    is_seed = np.zeros(n, dtype=bool)
    is_seed[list(seeds)] = True
    return graph_from_edges(n, edges, color=np.asarray(colors),
                                   is_seed=is_seed)


# ---- communities ---------------------------------------------------------------

def test_initial_graph_singleton_communities():
    g = cl.gen_security(5, 4, 1.5, master_seed=0)
    coms = communities(g)
    assert len(coms) == 5
    assert all(c.size == 1 and c.seed == c.members[0] for c in coms)


def test_er_graph_has_no_communities():
    g = cl.gen_er(50, 3, master_seed=0)
    with pytest.raises(ValueError, match="seeds"):
        communities(g)


def test_community_count_equals_seed_count(security_mid):
    coms = communities(security_mid)
    assert len(coms) == int(security_mid.is_seed.sum())
    assert sum(c.size for c in coms) == security_mid.n


def test_communities_returns_a_new_list_each_call():
    g = cl.gen_security(2000, 5, 1.5, master_seed=1)
    first = communities(g)
    count = len(first)
    first.pop()
    again = communities(g)
    assert again is not first and len(again) == count
    assert all(not c.members.flags.writeable for c in again)


def test_two_seeds_one_color_rejected():
    g = colored_graph(2, [(0, 1)], [0, 0], seeds=[0, 1])
    with pytest.raises(ValueError, match="seeds"):
        communities(g)


# ---- conductance ---------------------------------------------------------------

def test_conductance_cycle_pair():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert conductance(g, {0, 1}) == pytest.approx(0.5)


def test_conductance_complete_graph_single():
    g = graph_from_edges(4, [(i, j) for i in range(4)
                                    for j in range(i + 1, 4)])
    assert conductance(g, {0}) == pytest.approx(1.0)


def test_conductance_symmetry_and_range(security_mid):
    g = security_mid
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rng.choice(g.n, size=int(rng.integers(1, g.n // 2)), replace=False)
        phi = conductance(g, w)
        comp = sorted(set(range(g.n)) - set(int(x) for x in w))
        assert phi == pytest.approx(conductance(g, comp))
        assert 0.0 < phi <= 1.0


def test_conductance_validation():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        conductance(g, set())
    with pytest.raises(ValueError):
        conductance(g, {0, 1, 2})
    with pytest.raises(IndexError, match="W holds a node id out of range"):
        conductance(g, {0, 3})
    with pytest.raises(IndexError, match="W holds a node id out of range"):
        conductance(g, {-1})
    with pytest.raises(ValueError, match="zero volume"):  # an isolated node
        conductance(graph_from_edges(3, [(0, 1)]), {2})


def test_community_conductances_match_pointwise():
    g = cl.gen_security(400, 4, 1.5, master_seed=5)
    bulk = community_conductances(g)
    for com in communities(g):
        assert bulk[com.color].conductance == pytest.approx(
            conductance(g, com.members))
        assert bulk[com.color].size == com.size


def test_small_community_phenomenon(security_big):
    # frozen calibration: at least 80% of communities satisfy the
    # conductance bound C * |W|^-beta
    cc = community_conductances(security_big)
    ok = sum(1 for r in cc.values()
             if r.conductance <= COND_C * r.size ** -COND_BETA)
    assert ok / len(cc) >= 0.80


# ---- degree profiles --------------------------------------------------------------

def test_degree_profile_single_color():
    g = colored_graph(4, [(0, 1), (0, 2), (0, 3)], [1, 1, 1, 1], seeds=[0])
    p = degree_profile(g, 0)
    assert p.length == 1
    assert p.first_degree == 3 == g.degrees[0]
    assert p.second_degree == 0


def test_degree_profile_two_colors():
    # neighbor colors {c1 x3, c2 x1}
    g = colored_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                      [7, 1, 1, 1, 2], seeds=[0, 1, 4])
    p = degree_profile(g, 0)
    assert p.entries == ((1, 3), (2, 1))
    assert (p.length, p.first_degree, p.second_degree) == (2, 3, 1)
    assert sum(c for _, c in p.entries) == g.degrees[0]


def test_degree_profile_isolated():
    g = colored_graph(2, [], [0, 1], seeds=[0, 1])
    p = degree_profile(g, 0)
    assert p.entries == () and p.length == 0
    assert p.first_degree == 0 and p.second_degree == 0


def test_degree_priority_summary_matches_profiles(security_mid):
    g = security_mid
    s = degree_priority_summary(g)
    rng = np.random.default_rng(1)
    for v in rng.integers(0, g.n, size=300):
        p = degree_profile(g, int(v))
        assert s.length[v] == p.length
        assert s.first_degree[v] == p.first_degree
        assert s.second_degree[v] == p.second_degree
        top = p.entries[0][0] if p.entries else -1
        assert s.top_color[v] == top


def test_degree_priority_statistics(security_big):
    g = security_big
    s = degree_priority_summary(g)
    assert s.own_color_first(g).mean() >= 0.9
    assert np.median(s.second_degree) <= 2


# ---- power-law fitting ---------------------------------------------------------------

def discrete_pareto(rng, alpha, x_min, size):
    """Inverse-CDF sampling of a discrete power law (rounding recipe)."""
    u = rng.random(size)
    return np.floor((x_min - 0.5) * (1 - u) ** (-1 / (alpha - 1)) + 0.5)


def test_powerlaw_recovers_synthetic_exponent():
    rng = np.random.default_rng(12)
    for alpha in (2.1, 2.5, 3.0):
        x = discrete_pareto(rng, alpha, 10, 100_000)
        fit = powerlaw_exponent(x, 10)
        assert abs(fit.exponent - alpha) <= 0.05
        assert fit.sample_count == 100_000


def test_powerlaw_rejects_constant_sample():
    with pytest.raises(ValueError, match="equal"):
        powerlaw_exponent(np.full(500, 7), 5)


def test_powerlaw_rejects_small_tail():
    with pytest.raises(ValueError, match="at least 100"):
        powerlaw_exponent(np.arange(50) + 10, 10)


def test_powerlaw_rejects_d_min_below_one():
    with pytest.raises(ValueError, match="d_min must be at least 1"):
        powerlaw_exponent(np.arange(200) + 1, 0)


@pytest.mark.parametrize("d_min", [2.5, 2.0, np.float64(3.0), "2", None])
def test_powerlaw_rejects_non_integer_d_min(d_min):
    with pytest.raises(TypeError, match="d_min"):
        powerlaw_exponent(np.arange(200) + 1, d_min)


def test_powerlaw_takes_numpy_integer_d_min():
    x = np.arange(200) + 1
    assert powerlaw_exponent(x, np.int64(3)) == powerlaw_exponent(x, 3)


def test_powerlaw_pa_exponent_single_run():
    g = cl.gen_pa(50_000, 10, master_seed=4)
    fit = powerlaw_exponent(g.degrees, 10)
    assert 2.5 <= fit.exponent <= 3.5
    assert fit.ccdf_r2 > 0.9


# ---- distances -------------------------------------------------------------------------

def test_distance_stats_complete_graph():
    g = graph_from_edges(4, [(i, j) for i in range(4)
                                    for j in range(i + 1, 4)])
    st = distance_stats(g, 100)
    assert st.avg_distance == pytest.approx(1.0)
    assert st.est_diameter == 1
    assert st.pairs_sampled == 6  # all pairs enumerated


def test_distance_stats_path_three():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    st = distance_stats(g, 10)
    assert st.avg_distance == pytest.approx(4 / 3)
    assert st.est_diameter == 2


def test_distance_stats_deterministic(security_mid):
    a = distance_stats(security_mid, 64, seed=5)
    b = distance_stats(security_mid, 64, seed=5)
    assert a == b


def test_distance_stats_validation():
    g = graph_from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        distance_stats(g, 0)


@pytest.mark.parametrize("pair_u, pair_v, what", [
    ([-1], [0], "pair_u"), ([0], [4], "pair_v"), ([4, 0], [1, 2], "pair_u")])
def test_pair_distances_rejects_out_of_range_ids(pair_u, pair_v, what):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(IndexError, match=f"{what} holds a node id out of range"):
        pair_distances(g, pair_u, pair_v)


@pytest.mark.parametrize("pair_u, pair_v, what", [
    ([0.9], [3], "pair_u"), ([0], [2.0], "pair_v"),
    ([0, 1], [1, 2.5], "pair_v")])
def test_pair_distances_refuses_non_integer_ids(pair_u, pair_v, what):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(TypeError, match=f"{what} holds a non-integer node id"):
        pair_distances(g, pair_u, pair_v)


def test_navigate_refuses_non_integer_endpoint():
    with pytest.raises(TypeError,
                       match="navigation endpoints holds a non-integer"):
        navigate(_navigation_graph(), 0.5, 2, 10)


def test_pair_distances_rejects_unequal_columns():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="pair_u has 1 ids but pair_v has 2"):
        pair_distances(g, [0], [1, 2])


@pytest.mark.parametrize("max_sources", [0, -3])
def test_sample_lcc_pairs_rejects_no_sources(max_sources):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="max_sources must be at least 1"):
        sample_lcc_pairs(g, 2, max_sources=max_sources)


def test_average_distance_bound(security_big):
    st = distance_stats(security_big, 400, seed=23)
    assert st.avg_distance <= DIST_C2 * math.log(security_big.n)


# ---- community diameters ---------------------------------------------------------------

def test_community_diameters_small_cases():
    # color 0: singleton seed; color 1: star of 4 around its seed
    g = colored_graph(
        5, [(1, 2), (1, 3), (1, 4)], [0, 1, 1, 1, 1], seeds=[0, 1])
    dia = community_diameters(g)
    assert dia[0] == 0
    assert dia[1] == 2


def test_community_diameter_disconnected_reports_inf():
    g = colored_graph(3, [(0, 1)], [0, 0, 0], seeds=[0])
    assert math.isinf(community_diameters(g)[0])


def test_community_diameter_bound(security_big):
    dia = community_diameters(security_big)
    finite = [v for v in dia.values() if math.isfinite(v)]
    assert len(finite) == len(dia)  # generated communities stay connected
    assert max(finite) <= DIAM_C * math.log(math.log(security_big.n))


# ---- priority tree ----------------------------------------------------------------------

def test_ptree_initial_graph_only():
    g = cl.gen_security(5, 4, 1.5, master_seed=0)
    t = infection_priority_tree(g)
    assert t.is_tree
    assert t.height == 0
    assert len(t.vertex_colors) == 1
    assert t.edges == ()


def test_ptree_security_graph_is_tree(security_mid):
    t = infection_priority_tree(security_mid)
    assert t.is_tree
    assert not t.violations
    assert len(t.edges) == len(t.vertex_colors) - 1


def test_ptree_edges_point_to_earlier_births(security_mid):
    t = infection_priority_tree(security_mid)
    births = t.vertex_births
    assert all(births[c] > births[p] for c, p in t.edges)


def test_ptree_height_bound(security_mid):
    t = infection_priority_tree(security_mid)
    assert 0 < t.height <= HEIGHT_C3 * math.log(security_mid.n)


def test_ptree_chain_height_and_birth_order():
    # initial seeds 0 and 1; later seeds 2, 3, 4 (colors 9, 7, 5) each hang
    # off the one born before; the seed link 0-4 is dropped
    tags = cl.EdgeTag
    g = graph_from_edges(
        5, [(0, 1, tags.INITIAL), (0, 2, tags.PA_GLOBAL), (0, 4, tags.SEED_LINK),
            (2, 3, tags.PA_GLOBAL), (3, 4, tags.PA_GLOBAL)],
        color=[0, 1, 9, 7, 5], is_seed=[1, 1, 1, 1, 1])
    t = infection_priority_tree(g)
    assert t.vertex_colors == (None, 9, 7, 5)
    assert t.vertex_births == (0, 2, 3, 4)
    assert t.edges == ((1, 0), (2, 1), (3, 2))
    assert t.is_tree and t.height == 3


def test_ptree_root_with_outgoing_edge():
    # later seed 0 (color 5) is born at time 0, like the root, and has the
    # smaller id, so its edge to the root points away from the root
    tags = cl.EdgeTag
    g = graph_from_edges(
        3, [(0, 1, tags.PA_GLOBAL), (1, 2, tags.INITIAL)],
        color=[5, 0, 1], is_seed=[1, 1, 1])
    t = infection_priority_tree(g)
    assert t.vertex_colors == (None, 5) and t.vertex_births == (0, 0)
    assert t.edges == ((0, 1),)
    assert not t.is_tree
    assert t.violations == ("root has an outgoing edge",
                            "community 5 has no parent (unreachable)")


def test_ptree_community_without_parent():
    # seed 2's only edge is a seed link, which the tree drops
    tags = cl.EdgeTag
    g = graph_from_edges(
        3, [(0, 1, tags.INITIAL), (0, 2, tags.SEED_LINK)],
        color=[0, 1, 2], is_seed=[1, 1, 1])
    t = infection_priority_tree(g)
    assert t.edges == ()
    assert not t.is_tree and t.height == 0
    assert t.violations == ("community 2 has no parent (unreachable)",)


def test_ptree_community_with_two_parents():
    # community 3 links to the root and to the earlier community 2
    tags = cl.EdgeTag
    g = graph_from_edges(
        4, [(0, 1, tags.INITIAL), (0, 2, tags.PA_GLOBAL),
            (0, 3, tags.PA_GLOBAL), (2, 3, tags.HOMOPHYLY)],
        color=[0, 1, 2, 3], is_seed=[1, 1, 1, 1])
    t = infection_priority_tree(g)
    assert t.edges == ((1, 0), (2, 0), (2, 1))
    assert not t.is_tree and t.height == 2
    assert t.violations == ("community 3 has 2 parents",)


def test_ptree_rejects_plain_graph():
    g = cl.gen_er(20, 3, master_seed=0)
    with pytest.raises(ValueError, match="provenance"):
        infection_priority_tree(g)


@pytest.mark.parametrize("seeds, tag, message", [
    ([0, 0, 0], cl.EdgeTag.INITIAL, "no seeds"),
    ([1, 1, 0], cl.EdgeTag.PA_GLOBAL, "no INITIAL edges")])
def test_ptree_rejects_graph_without_provenance(seeds, tag, message):
    g = graph_from_edges(3, [(0, 1, tag), (1, 2, cl.EdgeTag.HOMOPHYLY)],
                         color=[0, 1, 1], is_seed=seeds)
    with pytest.raises(ValueError, match=f"{message}; provenance is missing"):
        infection_priority_tree(g)


def test_max_community_size_bound(security_big):
    sizes = [c.size for c in communities(security_big)]
    bound = SIZE_C1 * math.log(security_big.n) ** 2.5
    assert max(sizes) <= bound


# ---- navigation --------------------------------------------------------------------------

def test_navigate_same_node():
    g = cl.gen_security(100, 3, 1.5, master_seed=1)
    res = navigate(g, 17, 17, 10)
    assert res.path == (17,)
    assert res.hops == 0


def test_navigate_same_community_within_diameter():
    g = cl.gen_security(3_000, 6, 1.5, master_seed=2)
    coms = [c for c in communities(g) if c.size >= 4]
    dia = community_diameters(g)
    com = max(coms, key=lambda c: c.size)
    u, v = int(com.members[1]), int(com.members[-1])
    res = navigate(g, u, v, 10_000)
    assert res.succeeded
    assert res.hops <= dia[com.color]


def test_navigate_paths_are_valid(security_mid):
    g = security_mid
    indptr, indices = g.adjacency()
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
        res = navigate(g, u, v, 10_000)
        assert res.succeeded
        path = res.path
        assert path[0] == u and path[-1] == v
        assert len(set(path)) == len(path)  # simple
        for a, b in zip(path, path[1:]):
            assert b in indices[indptr[a]:indptr[a + 1]]


def test_navigate_budget_fail():
    g = cl.gen_security(2_000, 4, 1.5, master_seed=4)
    rng = np.random.default_rng(5)
    failed = 0
    for _ in range(20):
        u, v = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
        if g.color[u] == g.color[v]:
            continue
        res = navigate(g, u, v, 1)  # cross-community needs > 1 hop
        failed += not res.succeeded
    assert failed > 0


def _navigation_graph():
    # color 0: seed 0, path 0-1-2, member 7 cut off from the seed
    # color 1: seed 3, edge 3-4, member 8 cut off from the seed
    # color 2: seed 5, edge 5-6; seed 5 has no seed-seed edge
    # seeds 0 and 3 are linked; 7-4 and 8-6 cross colors
    is_seed = np.zeros(9, dtype=bool)
    is_seed[[0, 3, 5]] = True
    return graph_from_edges(
        9, [(0, 1), (0, 3), (1, 2), (3, 4), (4, 7), (5, 6), (6, 8)],
        color=np.array([0, 0, 0, 1, 1, 2, 2, 0, 1]), is_seed=is_seed)


@pytest.mark.parametrize("u, v, budget, path", [
    (1, 2, 5, (1, 2)),              # same community
    (2, 0, 1, None),                # same community, over budget
    (7, 1, 5, None),                # same community, disconnected
    (2, 4, 4, (2, 1, 0, 3, 4)),     # climb, cross, descend
    (2, 4, 3, None),                # all three legs found, over budget
    (7, 4, 10, None),               # the climb fails
    (1, 6, 10, None),               # the crossing fails
    (1, 8, 10, None),               # the descent fails
    (0, 3, 1, (0, 3)),              # seed to seed
])
def test_navigate_each_leg_and_budget(u, v, budget, path):
    g = _navigation_graph()
    res = navigate(g, u, v, budget)
    assert res.path == path
    assert res.hops == (-1 if path is None else len(path) - 1)
    assert res == dict_navigate(g, u, v, budget)


@pytest.mark.parametrize("u, v", [(9, 0), (0, 9), (-1, 2)])
def test_navigate_rejects_out_of_range_endpoint(u, v):
    with pytest.raises(IndexError, match="navigation endpoints.*out of range"):
        navigate(_navigation_graph(), u, v, 10)


@pytest.mark.parametrize("u, v", [(1, 2), (2, 4), (3, 3)])
def test_navigate_rejects_negative_hop_budget(u, v):
    with pytest.raises(ValueError, match="hop budget must be at least 0, got -1"):
        navigate(_navigation_graph(), u, v, -1)


def test_navigate_rejects_uncolored():
    g = cl.gen_pa(50, 3, master_seed=0)
    with pytest.raises(ValueError):
        navigate(g, 0, 1, 10)


# ---- colors far from 0..n ----------------------------------------------------------------


@pytest.mark.parametrize("recolor", [lambda c: c * 10**15, lambda c: 10**18 + c],
                         ids=["1e15-apart", "from-1e18"])
def test_reports_depend_on_color_order_only(recolor):
    # the reports index communities densely, so colors far apart or near
    # the int64 limit give the same results as colors 0..k-1
    g = cl.gen_security(600, 4, 1.5, master_seed=3)
    big = LabeledGraph(g.n, recolor(g.color), g.is_seed, g.birth_time,
                       g.edge_u, g.edge_v, g.edge_tag)
    to_big = dict(zip(g.color.tolist(), big.color.tolist()))

    assert community_conductances(big) == {
        to_big[c]: r for c, r in community_conductances(g).items()}

    s, bs = degree_priority_summary(g), degree_priority_summary(big)
    assert np.array_equal(bs.length, s.length)
    assert np.array_equal(bs.first_degree, s.first_degree)
    assert np.array_equal(bs.second_degree, s.second_degree)
    assert bs.top_color.tolist() == [to_big.get(c, -1) for c in s.top_color.tolist()]
    assert np.array_equal(bs.own_color_first(big), s.own_color_first(g))

    t, bt = infection_priority_tree(g), infection_priority_tree(big)
    assert bt.vertex_colors == tuple(None if c is None else to_big[c]
                                     for c in t.vertex_colors)
    assert (bt.vertex_births, bt.edges, bt.is_tree, bt.height, bt.violations) == \
        (t.vertex_births, t.edges, t.is_tree, t.height, t.violations)
    assert len(t.edges) > 10
