"""Warm-started sweeps and the shared propagation kernel, checked against
the cold engines they replace: the per-prefix cascades and injury sets of
fig1 and `injure`, and fig3's linear phi scan.

Graphs are small: random edge sets (isolated nodes, several components,
equal-size components) and the three generators through
``oracles.random_small_graph``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab as cl
from cascadelab import (Community, CommunityStrength, classify_community,
                        communities, infection_set, injury_set,
                        random_thresholds, security_threshold,
                        top_degree_nodes, uniform_thresholds)
from cascadelab import cascade
from cascadelab.cascade import (degree_order, prefix_infection_counts,
                                prefix_injury_counts)

from oracles import (graph_from_edges, linear_security_threshold,
                     random_small_graph, sync_round_growth)

SWEEP_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def edge_graphs(draw, max_n=20):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.lists(pairs, max_size=3 * n))
             if u != v}
    return graph_from_edges(n, sorted(edges))


@st.composite
def generated_graphs(draw):
    index = draw(st.integers(0, 10_000))
    return random_small_graph(np.random.default_rng(index), index)


graphs = st.one_of(edge_graphs(), generated_graphs())


@st.composite
def thresholds(draw, g):
    if draw(st.booleans()):
        return random_thresholds(g, draw(st.integers(0, 2**32)))
    phi = draw(st.sampled_from((0.05, 0.2, 1 / 3, 0.5, 2 / 3, 1.0)))
    return uniform_thresholds(g, phi)


@st.composite
def orders(draw, g):
    """A repeat-free attack order; sometimes every node, sometimes the
    degree order fig1 uses."""
    if draw(st.booleans()):
        return degree_order(g, draw(st.integers(0, g.n)))
    perm = draw(st.permutations(range(g.n)))
    return np.asarray(perm[:draw(st.integers(0, g.n))], dtype=np.int64)


@SWEEP_SETTINGS
@given(st.data())
def test_prefix_infection_counts_match_cold_cascades(data):
    g = data.draw(graphs)
    theta = data.draw(thresholds(g))
    order = data.draw(orders(g))
    warm = prefix_infection_counts(g, order, theta)
    cold = [infection_set(g, order[:k], theta).infected.size
            for k in range(1, order.size + 1)]
    assert warm.tolist() == cold


@SWEEP_SETTINGS
@given(st.data())
def test_prefix_injury_counts_match_injury_set(data):
    g = data.draw(graphs)
    order = data.draw(orders(g))
    swept = prefix_injury_counts(g, order)
    cold = [injury_set(g, order[:k]).size for k in range(1, order.size + 1)]
    assert swept.tolist() == cold


@SWEEP_SETTINGS
@given(st.data())
def test_infection_set_growth_matches_synchronous_rounds(data):
    g = data.draw(graphs)
    theta = data.draw(thresholds(g))
    order = data.draw(orders(g))
    out = infection_set(g, order, theta)
    growth = sync_round_growth(g, order, theta)
    assert out.growth == tuple(growth)
    assert out.rounds == len(growth) - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 120), st.integers(2, 4), st.integers(0, 10_000),
       st.data())
def test_classify_on_shared_kernel_matches_global_cascade(n, d, seed, data):
    g = cl.gen_security(max(n, d + 1), d, 1.5, master_seed=seed)
    theta = data.draw(thresholds(g))
    everyone = set(range(g.n))
    for com in communities(g):
        outside = sorted(everyone - set(com.members.tolist()))
        full = infection_set(g, outside, theta)
        expected = (CommunityStrength.VULNERABLE
                    if com.seed in set(full.infected.tolist())
                    else CommunityStrength.STRONG)
        assert classify_community(g, com, theta) is expected


@st.composite
def generator_graphs(draw):
    """er, pa or security graphs larger than ``random_small_graph``'s."""
    model = draw(st.sampled_from(("er", "pa", "security")))
    d = draw(st.integers(2, 6))
    n = draw(st.integers(d + 1, 400))
    a = 1.5 if model == "security" else None
    return cl.generate(model, n, d, a, master_seed=draw(st.integers(0, 2**32)))


@st.composite
def attacks(draw, g):
    """Attack ids with repeats, empty sets, top-degree sets and sets well
    beyond any budget."""
    cap = draw(st.sampled_from((2, max(2, g.n // 8), g.n + 5)))
    if draw(st.booleans()):
        return top_degree_nodes(g, draw(st.integers(0, min(cap, g.n))))
    return draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=cap))


# fractions k/deg for small deg, where a node's qualifying count changes
_FRACTIONS = sorted({k / m for m in range(1, 13) for k in range(1, m + 1)})


@st.composite
def phi_grids(draw):
    """Strictly ascending grids in (0, 1], one value or many, sometimes
    ending at 1.0."""
    values = draw(st.lists(
        st.one_of(st.sampled_from(_FRACTIONS),
                  st.floats(0.0, 1.0, exclude_min=True)),
        min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        values.append(1.0)
    return sorted(set(values))


@SWEEP_SETTINGS
@given(st.data())
def test_security_threshold_matches_linear_scan(data):
    g = data.draw(st.one_of(graphs, generator_graphs()))
    attack = data.draw(attacks(g))
    grid = data.draw(phi_grids())
    counts = [infection_set(g, attack, uniform_thresholds(g, phi)).infected.size
              for phi in grid]
    # answer j (None for j = len(grid)) needs low[j] <= epsilon * n <
    # high[j]: the counts at grid[j] and one step below, with n below the
    # first value and 0 past the last
    high = [g.n] + counts
    low = counts + [0]
    feasible = [j for j in range(len(grid) + 1) if low[j] < high[j]]
    wanted = {"none": [len(grid)], "first": [0], "last": [len(grid) - 1],
              "middle": list(range(1, len(grid) - 1))}
    target = data.draw(st.sampled_from(sorted(wanted)))
    j = data.draw(st.sampled_from(
        [j for j in feasible if j in wanted[target]] or feasible))
    if low[j] > 0 and data.draw(st.booleans()):
        epsilon = low[j] / g.n  # the budget sits on the count itself
    else:
        epsilon = (low[j] + high[j]) / (2 * g.n)
    expected = linear_security_threshold(g, attack, grid, epsilon)
    assert security_threshold(g, attack, grid, epsilon) == expected


def test_security_threshold_runs_no_cold_cascade(monkeypatch):
    g = cl.gen_security(500, 5, 1.5, master_seed=3)
    attack = top_degree_nodes(g, 7)
    grid = [i / 100 for i in range(1, 51)]
    expected = linear_security_threshold(g, attack, grid, 0.1)

    def cold(*args):
        raise AssertionError("security_threshold called infection_set")

    monkeypatch.setattr(cascade, "infection_set", cold)
    assert security_threshold(g, attack, grid, 0.1) == expected


def test_security_threshold_at_every_grid_position():
    # a budget on each strict step of the count curve makes that grid
    # value the answer; just below the last count, the answer is None
    g = cl.gen_pa(300, 3, master_seed=8)
    attack = top_degree_nodes(g, 6)
    grid = [i / 50 for i in range(19, 51)]  # 0.36 infects everyone
    counts = [infection_set(g, attack, uniform_thresholds(g, phi)).infected.size
              for phi in grid]
    steps = [j for j in range(1, len(grid)) if counts[j] < counts[j - 1]]
    assert counts[0] < g.n and len(steps) >= 3
    for j in [0] + steps:
        epsilon = counts[j] / g.n
        assert security_threshold(g, attack, grid, epsilon) == grid[j]
        assert linear_security_threshold(g, attack, grid, epsilon) == grid[j]
    epsilon = (counts[-1] - 0.5) / g.n
    assert security_threshold(g, attack, grid, epsilon) is None
    assert linear_security_threshold(g, attack, grid, epsilon) is None


# ---- the cases the sweeps must get right, spelled out -------------------------


def test_next_prefix_node_already_infected():
    # attacking the hub of a star infects every leaf (phi = 1); the next
    # attack nodes are infected already and must not be counted twice
    g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    theta = uniform_thresholds(g, 1.0)
    assert prefix_infection_counts(g, [0, 3, 1], theta).tolist() == [5, 5, 5]


def test_degree_zero_nodes_only_join_when_attacked():
    g = graph_from_edges(4, [(0, 1)])
    theta = random_thresholds(g, 3)
    assert theta.phi[2] == theta.phi[3] == 1.0
    assert prefix_infection_counts(g, [0, 2, 3], theta).tolist() == [2, 3, 4]
    assert prefix_infection_counts(g, [0, 1], theta).tolist() == [2, 2]


# every (phi, deg) with phi on the 0.01 grid and deg < 200 where the
# shortcuts misjudge the least k with k/deg >= phi in float: phi * deg
# rounds above k, and ceil(phi * deg) is k + 1 (7/25 >= 0.28, yet
# 0.28 * 25 > 7)
BOUNDARY_PAIRS = [
    (0.07, 100), (0.14, 50), (0.14, 100), (0.14, 150), (0.28, 25),
    (0.28, 50), (0.28, 75), (0.28, 100), (0.28, 150), (0.28, 175),
    (0.34, 150), (0.55, 100), (0.55, 180), (0.56, 25), (0.56, 50),
    (0.56, 75), (0.56, 100), (0.56, 150), (0.56, 175), (0.68, 75),
    (0.68, 150), (0.68, 175),
]


@pytest.mark.parametrize("phi,deg", BOUNDARY_PAIRS)
def test_fraction_exactly_at_phi_infects(phi, deg):
    # attacking k leaves of a star makes the hub's fraction exactly phi:
    # the hub falls and takes every leaf, and k - 1 leaves infect nothing
    g = graph_from_edges(deg + 1, [(0, i) for i in range(1, deg + 1)])
    k = next(k for k in range(1, deg + 1) if k / deg >= phi)
    theta = uniform_thresholds(g, phi)
    order = list(range(1, k + 1))
    assert infection_set(g, order, theta).infected.size == deg + 1
    assert prefix_infection_counts(g, order, theta).tolist() == \
        list(range(1, k)) + [deg + 1]
    # one grid step above phi holds the cascade to the attack set
    grid = [phi, round(phi + 0.01, 2)]
    epsilon = (k + 0.5) / (deg + 1)
    assert security_threshold(g, order, grid, epsilon) == grid[1]
    assert linear_security_threshold(g, order, grid, epsilon) == grid[1]
    assert security_threshold(g, order, grid[:1], epsilon) is None


def test_threshold_assignment_must_match_graph_size():
    g = graph_from_edges(3, [(0, 1), (1, 2)], color=[0, 0, 0],
                                is_seed=[1, 0, 0])
    theta = uniform_thresholds(graph_from_edges(2, [(0, 1)]), 0.5)
    with pytest.raises(ValueError, match="does not match graph size"):
        infection_set(g, [0], theta)
    with pytest.raises(ValueError, match="does not match graph size"):
        prefix_infection_counts(g, [0], theta)
    with pytest.raises(ValueError, match="does not match graph size"):
        cl.count_vulnerable(g, theta)


@pytest.mark.parametrize("order", [[3], [-1], [0, 5]])
def test_prefix_sweeps_reject_out_of_range_order(order):
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(IndexError, match="attack order"):
        prefix_infection_counts(g, order, uniform_thresholds(g, 0.5))
    with pytest.raises(IndexError, match="removal order"):
        prefix_injury_counts(g, order)


def test_injury_ties_between_equal_components():
    # two triangles joined through node 6: removing it leaves a tie
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (3, 6)]
    g = graph_from_edges(7, edges)
    assert prefix_injury_counts(g, [6, 0]).tolist() == [3, 2]
    assert [injury_set(g, [6]).size, injury_set(g, [6, 0]).size] == [3, 2]


def test_injury_whole_graph_removed():
    g = graph_from_edges(3, [(0, 1)])
    assert prefix_injury_counts(g, [0, 2, 1]).tolist() == [1, 0, 0]


def test_injury_order_must_not_repeat():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="repeats"):
        prefix_injury_counts(g, [1, 1])


def test_classify_infects_only_inside_the_community():
    # X = {0 (seed), 1, 4, 5}; outside nodes 2 and 3 count as infected
    # once, through the preloaded external counts.  Member 1 falls at
    # once, and node 2 would reach its own threshold from it; letting 2
    # "fall" again would push seed 0 over phi = 1/2 by double counting.
    g = graph_from_edges(
        6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3)],
        color=[0, 0, 1, 1, 0, 0], is_seed=[1, 0, 1, 0, 0, 0])
    x = Community(color=0, members=np.array([0, 1, 4, 5]), seed=0)
    theta = uniform_thresholds(g, 0.5)
    assert 0 not in infection_set(g, [2, 3], theta).infected.tolist()
    assert classify_community(g, x, theta) is CommunityStrength.STRONG


def test_top_degree_nodes_is_sorted_degree_order():
    g = cl.gen_pa(300, 3, master_seed=4)
    for k in (0, 1, 17, 300):
        assert np.array_equal(top_degree_nodes(g, k),
                              np.sort(degree_order(g, k)))
