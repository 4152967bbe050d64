"""Whole-graph structure reports, checked against the code they replaced.

The intra-color and seed CSRs, built from the edge list, must equal
``row_filter_sub_adjacency``, the row-by-row filter of the whole CSR that
they replaced, and must build without the whole CSR.
The push/pull BFS kernel must yield the same levels, nodes and bits as
``pull_bfs_levels``, the kernel that pulled over the whole CSR at every
level, with the switch forced to push, forced to pull and at its default;
on security graphs of 2e4 nodes, where the default switch meets both
directions, ``distance_stats`` and ``community_diameters`` must not move.
The community index behind ``communities``, the bit-parallel BFS behind
``pair_distances``, ``distance_stats`` and ``community_diameters``, the
joint cascade of ``count_vulnerable`` and the CSR-row navigation must
give the same outputs as the oracles in ``oracles.py`` (the ``np.split``
grouping, Dijkstra rows, per-community Dijkstra, the per-community
``_classify`` loop, dict-of-lists navigation), ``visited`` counts and
error texts included.  Inputs: random edge sets with random colors and one seed per
color, the security generator, and hand-built graphs at the 64-lane word
edges.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab as cl
from cascadelab import (community_diameters, count_vulnerable,
                        distance_stats, navigate, random_thresholds,
                        uniform_thresholds)
from cascadelab import structure
from cascadelab.structure import pair_distances

from conftest import traced_peak
from oracles import (classify_loop_count_vulnerable, dict_navigate,
                     graph_from_edges,
                     dijkstra_community_diameters, dijkstra_distance_stats,
                     dijkstra_pair_distances, pull_bfs_levels,
                     row_filter_sub_adjacency, split_communities)

BULK_SETTINGS = settings(max_examples=150, deadline=None)


def colored_graph(n, edges, color, seeds):
    is_seed = np.zeros(n, dtype=bool)
    is_seed[list(seeds)] = True
    return graph_from_edges(n, sorted(edges),
                                   color=np.asarray(color, dtype=np.int64),
                                   is_seed=is_seed)


@st.composite
def colored_graphs(draw, max_n=30):
    """Random edges over random (possibly sparse) colors with one seed per
    color; sometimes each community also gets a random spanning tree."""
    n = draw(st.integers(1, max_n))
    palette = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6,
                            unique=True))
    color = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    color = np.asarray(color, dtype=np.int64)
    seeds, edges = [], set()
    spanning = draw(st.booleans())
    for c in np.unique(color).tolist():
        members = np.flatnonzero(color == c).tolist()
        seeds.append(draw(st.sampled_from(members)))
        if spanning:
            for i in range(1, len(members)):
                j = draw(st.integers(0, i - 1))
                edges.add((members[j], members[i]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(u, v), max(u, v))
              for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return colored_graph(n, edges, color, seeds)


@st.composite
def security_graphs(draw):
    n = draw(st.integers(4, 300))
    d = draw(st.integers(2, 6))
    return cl.generate("security", max(n, d + 1), d, 1.5,
                       master_seed=draw(st.integers(0, 10_000)))


graphs = st.one_of(colored_graphs(), security_graphs())


@st.composite
def thresholds(draw, g):
    if draw(st.booleans()):
        return random_thresholds(g, draw(st.integers(0, 2**32)))
    phi = draw(st.sampled_from((0.05, 0.2, 1 / 3, 0.5, 2 / 3, 1.0)))
    return uniform_thresholds(g, phi)


def outcome(fn, *args):
    """The value fn returns, or the type and text of the error it raises."""
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)


def assert_navigation_matches(g, queries, budget):
    for u, v in queries:
        assert navigate(g, u, v, budget) == dict_navigate(g, u, v, budget), (u, v)


def assert_reports_match(g, theta):
    assert community_diameters(g) == dijkstra_community_diameters(g)
    assert count_vulnerable(g, theta) == classify_loop_count_vulnerable(g, theta)


# small colors, colors 10**15 apart, and colors from 10**18 to the int64 limit
palettes = st.one_of(st.integers(0, 40),
                     st.integers(0, 9).map(lambda c: c * 10**15),
                     st.integers(10**18, 2**63 - 1))


@st.composite
def seeded_colorings(draw, max_n=30):
    """Edgeless graphs over random colors; either one seed per color or
    random seed flags, so some colors have no seed or several."""
    n = draw(st.integers(0, max_n))
    palette = draw(st.lists(palettes, min_size=1, max_size=8, unique=True))
    color = np.asarray(draw(st.lists(st.sampled_from(palette), min_size=n,
                                     max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        is_seed = np.zeros(n, dtype=bool)
        for c in np.unique(color).tolist():
            is_seed[draw(st.sampled_from(np.flatnonzero(color == c).tolist()))] = True
    else:
        is_seed = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
    return graph_from_edges(n, [], color=color, is_seed=is_seed)


def community_rows(coms):
    return [(type(c.color), c.color, c.members.dtype, c.members.tolist(),
             type(c.seed), c.seed) for c in coms]


@BULK_SETTINGS
@given(st.one_of(seeded_colorings(), graphs))
def test_communities_match_split(g):
    ours, theirs = outcome(cl.communities, g), outcome(split_communities, g)
    if theirs[0] == "error":
        assert ours == theirs
    else:
        assert community_rows(ours[1]) == community_rows(theirs[1])


@pytest.mark.parametrize("color,is_seed,expected", [
    ([], [], []),
    ([7], [1], [(7, [0], 0)]),
    ([5, 10**18, 2**63 - 1, 0], [1, 1, 1, 1],
     [(0, [3], 3), (5, [0], 0), (10**18, [1], 1), (2**63 - 1, [2], 2)]),
    ([3 * 10**15, 10**15, 3 * 10**15, 10**15], [0, 1, 1, 0],
     [(10**15, [1, 3], 1), (3 * 10**15, [0, 2], 2)]),
    ([2, 1, 2, 1, 0], [1, 0, 1, 0, 0], "color 0 has 0 seeds, expected exactly 1"),
    ([9, 4, 9, 4, 4], [1, 1, 1, 0, 1], "color 4 has 2 seeds, expected exactly 1"),
], ids=["empty", "one-node", "singletons", "1e15-apart", "no-seed",
        "two-seeds"])
def test_communities_fixed_cases(color, is_seed, expected):
    g = graph_from_edges(len(color), [],
                                color=np.asarray(color, dtype=np.int64),
                                is_seed=np.asarray(is_seed, dtype=bool))
    if isinstance(expected, str):
        for build in (cl.communities, split_communities):
            with pytest.raises(ValueError) as err:
                build(g)
            assert str(err.value) == expected
    else:
        assert [(c.color, c.members.tolist(), c.seed)
                for c in cl.communities(g)] == expected
        assert community_rows(cl.communities(g)) == \
            community_rows(split_communities(g))


@BULK_SETTINGS
@given(st.data())
def test_pair_distances_match_dijkstra(data):
    g = data.draw(graphs)
    k = data.draw(st.integers(1, 40))
    nodes = st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k)
    pair_u = np.asarray(data.draw(nodes), dtype=np.int64)
    pair_v = np.asarray(data.draw(nodes), dtype=np.int64)
    ours = pair_distances(g, pair_u, pair_v)
    assert ours.dtype == np.float64
    np.testing.assert_array_equal(ours,
                                  dijkstra_pair_distances(g, pair_u, pair_v))


@BULK_SETTINGS
@given(graphs, st.integers(1, 400), st.integers(0, 100))
def test_distance_stats_match_dijkstra(g, sample_pairs, seed):
    assert (outcome(distance_stats, g, sample_pairs, seed)
            == outcome(dijkstra_distance_stats, g, sample_pairs, seed))


@BULK_SETTINGS
@given(st.data())
def test_diameters_and_vulnerable_counts_match_oracles(data):
    g = data.draw(graphs)
    assert_reports_match(g, data.draw(thresholds(g)))


@BULK_SETTINGS
@given(st.data())
def test_navigation_matches_dict_adjacency(data):
    g = data.draw(graphs)
    node = st.integers(0, g.n - 1)
    queries = data.draw(st.lists(st.tuples(node, node), max_size=30))
    assert_navigation_matches(g, queries, data.draw(st.integers(0, 12)))


# ---- hand-built cases -------------------------------------------------------


def tree_communities(sizes, seed=0, cross=40, drop=()):
    """One community per size, each a random tree (members interleaved
    across the id range), plus random cross-color edges.  Every edge at a
    node in ``drop`` is left out, which isolates it."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    color = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    edges, seeds = set(), []
    for c in range(len(sizes)):
        members = np.flatnonzero(color == c).tolist()
        seeds.append(members[int(rng.integers(len(members)))])
        for i in range(1, len(members)):
            j = int(rng.integers(i))
            edges.add((min(members[i], members[j]), max(members[i], members[j])))
    for u, v in rng.integers(0, n, size=(cross, 2)).tolist():
        if color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    edges = {e for e in edges if not set(e) & set(drop)}
    return colored_graph(n, edges, color, seeds)


def all_thresholds(g):
    yield random_thresholds(g, 5)
    for phi in (0.1, 0.3, 0.5, 1.0):
        yield uniform_thresholds(g, phi)


def some_queries(g, count=300, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, g.n, size=(count, 2)).tolist()


@pytest.mark.parametrize("sizes", [(1,), (64,), (65,), (129,),
                                   (1, 64, 65, 129), (129, 1, 1, 65, 64, 3)])
def test_lane_word_edges(sizes):
    g = tree_communities(sizes)
    for theta in all_thresholds(g):
        assert_reports_match(g, theta)
    assert_navigation_matches(g, some_queries(g), 40)
    assert all(d < np.inf for d in community_diameters(g).values())


@pytest.mark.parametrize("lane", [0, 63, 64, 128])
def test_disconnected_community_is_inf(lane):
    """Cut one member out of a 129-member community; the cut node's lane
    sits in word lane // 64."""
    g = tree_communities((129, 65, 1))
    members = cl.communities(g)[0].members
    g = tree_communities((129, 65, 1), drop=(int(members[lane]),))
    dia = community_diameters(g)
    assert dia[0] == np.inf
    assert dia[1] < np.inf and dia[2] == 0.0
    assert dia == dijkstra_community_diameters(g)
    for theta in all_thresholds(g):
        assert_reports_match(g, theta)
    assert_navigation_matches(g, some_queries(g), 40)


def test_two_isolated_members_are_inf():
    # color 0 is one edge, color 1 two isolated members, color 2 one node
    g = colored_graph(5, {(0, 2), (0, 1)}, [0, 2, 0, 1, 1], [0, 1, 3])
    assert community_diameters(g) == {0: 1.0, 1: np.inf, 2: 0.0}
    assert community_diameters(g) == dijkstra_community_diameters(g)


@pytest.mark.parametrize("where", ["first", "middle", "last", "all"])
def test_isolated_nodes(where):
    """Degree-0 rows first, in the middle and last in the CSR: the rows the
    BFS kernel must leave out of its reduceat."""
    sizes = (70, 20, 1, 1)
    n = sum(sizes)
    drop = {"first": [0], "middle": [n // 2], "last": [n - 1],
            "all": list(range(n))}[where]
    g = tree_communities(sizes, cross=60, drop=drop)
    assert (g.degrees[drop] == 0).all()
    for theta in all_thresholds(g):
        assert_reports_match(g, theta)
    assert_navigation_matches(g, some_queries(g), 40)
    nodes = np.arange(g.n)
    np.testing.assert_array_equal(
        pair_distances(g, nodes, nodes[::-1]),
        dijkstra_pair_distances(g, nodes, nodes[::-1]))
    assert (outcome(distance_stats, g, 200, 3)
            == outcome(dijkstra_distance_stats, g, 200, 3))


# ---- push/pull BFS against the pull-only oracle --------------------------------

# 0 pulls every level, 2 pushes every level, None keeps the default switch
SWITCHES = pytest.mark.parametrize("share", [0.0, 2.0, None],
                                   ids=["pull", "push", "default"])


def lane_seen(n, sources):
    """(words, n) BFS bits with lane i set at node sources[i]; lanes may
    share a node."""
    sources = np.asarray(sources, dtype=np.int64)
    lanes = np.arange(sources.size)
    seen = np.zeros(((sources.size - 1) // 64 + 1, n), dtype=np.uint64)
    np.bitwise_or.at(seen, (lanes // 64, sources),
                     np.uint64(1) << (lanes % 64).astype(np.uint64))
    return seen


def assert_levels_match(csr, seen, share):
    theirs_seen = seen.copy()
    theirs = [(level, hit.tolist(), new.copy())
              for level, hit, new in pull_bfs_levels(*csr, theirs_seen)]
    with mock.patch.object(structure, "_PUSH_SHARE",
                           structure._PUSH_SHARE if share is None else share):
        ours = [(level, hit.tolist(), new.copy())
                for level, hit, new in structure._bfs_levels(*csr, seen)]
    assert [row[:2] for row in ours] == [row[:2] for row in theirs]
    for (level, _, new), (_, _, old) in zip(ours, theirs):
        np.testing.assert_array_equal(new, old, err_msg=f"level {level}")
    np.testing.assert_array_equal(seen, theirs_seen)


@SWITCHES
@BULK_SETTINGS
@given(st.data())
def test_bfs_levels_match_pull_oracle(share, data):
    g = data.draw(st.one_of(graphs, seeded_colorings()).filter(lambda g: g.n))
    csr = (structure.intra_color_adjacency(g) if data.draw(st.booleans())
           else g.adjacency())
    lanes = data.draw(st.sampled_from([1, 63, 64, 65, 256])
                      | st.integers(1, 300))
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=lanes,
                                 max_size=lanes))
    assert_levels_match(csr, lane_seen(g.n, sources), share)


def two_paths_and_isolated():
    # two paths, 0-1-2-3 and 4-5-6-7-8-9, plus the isolated nodes 10 and 11
    return graph_from_edges(12, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6),
                                 (6, 7), (7, 8), (8, 9)])


@SWITCHES
@pytest.mark.parametrize("g, sources", [
    (graph_from_edges(1, []), [0]),
    (graph_from_edges(5, []), [0, 4, 4] + [2] * 62),
    (two_paths_and_isolated(), [10]),
    (two_paths_and_isolated(), [0] * 63),
    # word 1 (lane 64) starts at a degree-0 node, so it empties at level 1
    (two_paths_and_isolated(), [4] * 64 + [11]),
    # word 0 runs out after 3 levels on the short path, word 1 after 5
    (two_paths_and_isolated(), [0] * 64 + [4]),
    (two_paths_and_isolated(), [3, 10, 9, 11, 0] * 51 + [6]),
    (cl.generate("security", 400, 4, 1.5, master_seed=3),
     np.random.default_rng(3).integers(0, 400, size=256)),
], ids=["one-node", "edgeless", "isolated-source", "63-lanes",
        "word-empties-first", "words-end-apart", "256-lanes", "security"])
def test_bfs_levels_fixed_cases(share, g, sources):
    assert_levels_match(g.adjacency(), lane_seen(g.n, sources), share)


@pytest.mark.parametrize("seed", [0, 1])
def test_mid_size_reports_match_pull_oracle(seed, monkeypatch):
    """At n = 2e4 the frontiers have realistic shapes, so the default switch
    both pushes and pulls."""
    g = cl.gen_security(20_000, 5, 1.5, master_seed=seed)
    ours = distance_stats(g, 1000, seed), community_diameters(g)
    monkeypatch.setattr(structure, "_bfs_levels", pull_bfs_levels)
    assert ours == (distance_stats(g, 1000, seed), community_diameters(g))


@pytest.mark.parametrize("sources", [1, 63, 64, 65, 128, 129, 256, 257, 300])
def test_distance_sources_at_word_edges(sources):
    g = cl.generate("security", 400, 4, 1.5, master_seed=sources)
    rng = np.random.default_rng(sources)
    src = rng.choice(g.n, size=sources, replace=False)
    pair_u = np.concatenate([src, rng.choice(src, size=200)])
    pair_v = rng.integers(0, g.n, size=pair_u.size)
    assert np.unique(pair_u).size == sources
    np.testing.assert_array_equal(pair_distances(g, pair_u, pair_v),
                                  dijkstra_pair_distances(g, pair_u, pair_v))


def test_distances_across_components():
    # two paths, 0-1-2-3 and 4-5, plus the isolated node 6
    g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    pair_u = np.asarray([0, 0, 0, 3, 4, 6, 6])
    pair_v = np.asarray([3, 4, 0, 0, 5, 6, 0])
    np.testing.assert_array_equal(pair_distances(g, pair_u, pair_v),
                                  [3, np.inf, 0, 3, 1, 0, np.inf])


@pytest.mark.parametrize("model", ["er", "pa"])
def test_uncolored_graphs_raise(model):
    g = cl.generate(model, 200, 4, master_seed=3)
    theta = uniform_thresholds(g, 0.3)
    with pytest.raises(ValueError):
        count_vulnerable(g, theta)
    with pytest.raises(ValueError):
        classify_loop_count_vulnerable(g, theta)
    with pytest.raises(ValueError):
        navigate(g, 0, 1, 10)
    with pytest.raises(ValueError):
        dict_navigate(g, 0, 1, 10)
    with pytest.raises(ValueError):
        community_diameters(g)
    assert (outcome(distance_stats, g, 100, 0)
            == outcome(dijkstra_distance_stats, g, 100, 0))


def test_security_graph_mid_size():
    g = cl.generate("security", 5000, 10, 1.5, master_seed=4)
    for theta in all_thresholds(g):
        assert_reports_match(g, theta)
    assert_navigation_matches(g, some_queries(g, 500), 64)
    assert (outcome(distance_stats, g, 1000, 4)
            == outcome(dijkstra_distance_stats, g, 1000, 4))


# ---- intra-color and seed CSRs ----------------------------------------------


@st.composite
def sub_csr_graphs(draw, max_n=24):
    """Random edges (possibly none) over 0..max_n nodes with one color, a
    color per node (every edge crosses colors) or random colors, and no,
    all or random seeds."""
    n = draw(st.integers(0, max_n))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {(min(u, v), max(u, v))
                 for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    coloring = draw(st.sampled_from(("one", "per-node", "random")))
    if coloring == "random":
        color = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n,
                                         max_size=n)), dtype=np.int64)
    else:
        color = np.arange(n) if coloring == "per-node" else np.zeros(n)
    seeding = draw(st.sampled_from(("none", "all", "random")))
    if seeding == "random":
        is_seed = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
    else:
        is_seed = np.full(n, seeding == "all")
    return graph_from_edges(n, sorted(edges), color=color.astype(np.int64),
                            is_seed=is_seed)


def assert_sub_csrs_match_row_filter(g):
    for ours, key, keep_edge in (
            (structure.intra_color_adjacency(g), "row-filter-intra-color",
             lambda u, v: g.color[u] == g.color[v]),
            (structure._seed_adjacency(g), "row-filter-seed",
             lambda u, v: g.is_seed[u] & g.is_seed[v])):
        theirs = row_filter_sub_adjacency(g, key, keep_edge)
        for a, b in zip(ours, theirs):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)


@BULK_SETTINGS
@given(st.one_of(sub_csr_graphs(), security_graphs()))
def test_sub_csrs_match_row_filter(g):
    assert_sub_csrs_match_row_filter(g)


@pytest.mark.parametrize("g", [
    graph_from_edges(0, []), graph_from_edges(1, [], is_seed=np.ones(1, bool)),
    graph_from_edges(5, []), graph_from_edges(6, [(1, 4), (2, 3)])],
    ids=["n0", "n1", "no-edges", "isolated-nodes"])
def test_sub_csrs_match_row_filter_small_cases(g):
    assert_sub_csrs_match_row_filter(g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sub_csrs_match_row_filter_on_security_graphs(seed):
    assert_sub_csrs_match_row_filter(
        cl.gen_security(3000, 10, 1.5, master_seed=seed))


def test_community_queries_never_build_the_whole_csr():
    """The sub-CSRs come from the edge list, so containment, diameters and
    navigation on a fresh graph leave the whole CSR unbuilt."""
    def fresh():
        return cl.gen_security(300, 4, 1.5, master_seed=5)

    g = fresh()
    lay = structure._community_layout(g)
    u, v = lay.members[lay.starts[1] - 1], lay.members[-1]  # two communities
    queries = {
        "intra_color_adjacency": structure.intra_color_adjacency,
        "_seed_adjacency": structure._seed_adjacency,
        "count_vulnerable": lambda g: count_vulnerable(
            g, uniform_thresholds(g, 0.3)),
        "community_diameters": community_diameters,
        "navigate": lambda g: navigate(g, int(u), int(v), 100),
    }
    for name, query in queries.items():
        g = fresh()
        query(g)
        assert "csr" not in g._derived, name


def test_intra_color_build_holds_under_three_edge_columns():
    """On a fresh graph the intra-color CSR build holds under three edge
    columns beside its result (the colors of both endpoints, then the kept
    endpoints), where the row filter kept the whole CSR in the graph's
    cache and held four columns more."""
    g = cl.gen_security(20_000, 10, 1.5)
    (indptr, indices), peak = traced_peak(
        lambda: structure.intra_color_adjacency(g))
    assert peak - indptr.nbytes - indices.nbytes < 3 * g.edge_u.nbytes
