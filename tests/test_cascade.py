import math
import signal

import numpy as np
import pytest

import cascadelab as cl
from cascadelab import (CommunityStrength, ThresholdAssignment,
                        classify_community, communities, count_vulnerable,
                        infection_set, injury_set, random_thresholds,
                        security_threshold, top_degree_nodes,
                        uniform_thresholds)
from cascadelab.cascade import prefix_infection_counts

from oracles import (async_infection, graph_from_edges, neighbors,
                     random_attack, random_small_graph, rescan_infection)


def star_graph(leaves):
    return graph_from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def path_graph(k):
    return graph_from_edges(k, [(i, i + 1) for i in range(k - 1)])


# ---- threshold assignments -----------------------------------------------------

def test_uniform_thresholds_values():
    g = star_graph(4)
    theta = uniform_thresholds(g, 0.5)
    assert (theta.phi == 0.5).all()
    # the o(1) regime value is legal
    uniform_thresholds(g, 1 / math.log(10_000))
    uniform_thresholds(g, 1.0)


def test_uniform_thresholds_range_errors():
    g = star_graph(2)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError):
            uniform_thresholds(g, bad)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1, 1.5, math.inf])
def test_threshold_assignment_rejects_phi_outside_unit_interval(bad):
    phi = np.full(5, 0.5)
    phi[2] = bad
    phi[4] = bad
    with pytest.raises(ValueError, match="node 2"):
        ThresholdAssignment(phi)


def test_random_thresholds_degree_one_is_one():
    g = path_graph(2)
    for seed in range(20):
        theta = random_thresholds(g, seed)
        assert (theta.phi == 1.0).all()


def test_random_thresholds_deterministic():
    g = cl.gen_er(200, 4, master_seed=0)
    a = random_thresholds(g, 123)
    b = random_thresholds(g, 123)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, random_thresholds(g, 124).phi)


def test_random_thresholds_degree_zero_uninfectable():
    # a degree-0 node gets phi 1.0 and, in no neighbor list, never falls
    g = graph_from_edges(3, [(0, 1)])
    theta = random_thresholds(g, 5)
    assert theta.phi.tolist() == [1.0, 1.0, 1.0]
    assert infection_set(g, {0}, theta).infected.tolist() == [0, 1]
    assert infection_set(g, {0, 1}, theta).infected.tolist() == [0, 1]


def test_random_thresholds_draw_nothing_for_degree_zero_and_one():
    """numpy draws no bits for a bound that admits one value, so a node of
    degree 0 or 1 leaves the stream to the others: r over the nodes of
    degree >= 2 is the same draw as if those nodes were alone."""
    rng = np.random.default_rng
    assert rng(5).integers(1, [2, 2, 2, 11, 11]).tolist() == [1, 1, 1, 7, 9]
    assert rng(5).integers(1, [11, 11]).tolist() == [7, 9]
    # degrees 3, 1, 2, 1, 2, 1, 0 in id order
    g = graph_from_edges(7, [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5)])
    deg = g.degrees
    phi = random_thresholds(g, 11).phi
    many = deg >= 2
    r = cl.rng_from(11, "random-thresholds").integers(1, deg[many] + 1)
    assert phi[many].tolist() == (r / deg[many]).tolist()
    assert (phi[~many] == 1.0).all()


def test_random_thresholds_degree_four_frequencies():
    # circulant graph: every node has degree 4, 10^4 draws in one assignment
    n = 10_000
    edges = [(i, (i + 1) % n) for i in range(n)] + \
            [(i, (i + 2) % n) for i in range(n)]
    g = graph_from_edges(n, edges)
    theta = random_thresholds(g, 99)
    values, counts = np.unique(theta.phi, return_counts=True)
    assert values.tolist() == [0.25, 0.5, 0.75, 1.0]
    freq = counts / n
    assert np.all(np.abs(freq - 0.25) <= 0.02)


# ---- infection_set ---------------------------------------------------------------

def test_empty_attack_empty_infection():
    g = star_graph(4)
    out = infection_set(g, set(), uniform_thresholds(g, 0.5))
    assert out.infected.size == 0
    assert out.growth == (0,)
    assert out.rounds == 0


def test_star_half_threshold_infects_all():
    g = star_graph(4)
    out = infection_set(g, {0}, uniform_thresholds(g, 0.5))
    assert out.infected.tolist() == [0, 1, 2, 3, 4]
    assert out.growth == (1, 4)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_cascade_ends_though_infected_nodes_still_qualify():
    # once the leaves fall, the attacked hub and the leaves all meet phi;
    # a loop that tested infected nodes again would reinfect them forever,
    # so an alarm turns that hang into a failure
    def expire(signum, frame):
        raise TimeoutError("the cascade did not end within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        g = star_graph(4)
        out = infection_set(g, {0}, uniform_thresholds(g, 0.5))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert out.growth == (1, 4)


def test_path_high_threshold_blocks():
    g = path_graph(3)
    out = infection_set(g, {0}, uniform_thresholds(g, 0.6))
    assert out.infected.tolist() == [0]


def test_phi_one_needs_every_neighbor():
    g = star_graph(4)
    theta = uniform_thresholds(g, 1.0)
    # a leaf cannot infect the center (1/4 < 1), but the center's single
    # infected neighbor is a leaf's whole neighborhood
    assert infection_set(g, {1}, theta).infected.tolist() == [1]
    assert infection_set(g, {0}, theta).infected.tolist() == [0, 1, 2, 3, 4]


def test_attacked_degree_zero_node_stays_infected():
    g = graph_from_edges(3, [(0, 1)])
    out = infection_set(g, {2}, random_thresholds(g, 1))
    assert out.infected.tolist() == [2]


def test_growth_trace_properties():
    g = cl.gen_pa(400, 3, master_seed=8)
    out = infection_set(g, top_degree_nodes(g, 5), random_thresholds(g, 2))
    assert sum(out.growth) == out.infected.size
    assert all(x > 0 for x in out.growth[1:])
    assert out.rounds == len(out.growth) - 1


def test_matches_rescan_oracle_quick():
    rng = np.random.default_rng(7)
    for i in range(150):
        g = random_small_graph(rng, i)
        s = random_attack(rng, g.n)
        theta = (random_thresholds(g, i) if i % 2
                 else uniform_thresholds(g, float(rng.uniform(0.05, 1.0))))
        ours = set(int(x) for x in infection_set(g, s, theta).infected)
        assert ours == rescan_infection(g, s, theta)


def test_matches_async_oracle_quick():
    rng = np.random.default_rng(11)
    for i in range(60):
        g = random_small_graph(rng, i + 1000)
        s = random_attack(rng, g.n)
        theta = random_thresholds(g, i)
        ours = set(int(x) for x in infection_set(g, s, theta).infected)
        assert ours == async_infection(g, s, theta, rng)


def test_idempotence():
    rng = np.random.default_rng(13)
    for i in range(40):
        g = random_small_graph(rng, i + 2000)
        theta = random_thresholds(g, i)
        first = infection_set(g, random_attack(rng, g.n), theta).infected
        again = infection_set(g, first, theta).infected
        assert np.array_equal(first, again)


def test_monotone_in_attack_set():
    rng = np.random.default_rng(17)
    for i in range(40):
        g = random_small_graph(rng, i + 3000)
        theta = random_thresholds(g, i)
        small = set(random_attack(rng, g.n))
        extra = set(random_attack(rng, g.n))
        a = set(infection_set(g, small, theta).infected.tolist())
        b = set(infection_set(g, small | extra, theta).infected.tolist())
        assert a <= b


def test_monotone_in_thresholds():
    rng = np.random.default_rng(19)
    for i in range(40):
        g = random_small_graph(rng, i + 4000)
        s = random_attack(rng, g.n)
        lo, hi = sorted(rng.uniform(0.05, 1.0, size=2))
        inf_lo = set(infection_set(g, s, uniform_thresholds(g, lo)).infected.tolist())
        inf_hi = set(infection_set(g, s, uniform_thresholds(g, hi)).infected.tolist())
        assert inf_hi <= inf_lo


def test_non_integer_attack_is_refused_not_truncated():
    g = star_graph(3)
    theta = uniform_thresholds(g, 0.5)
    with pytest.raises(TypeError, match="attack set holds a non-integer"):
        infection_set(g, [1.5, 2.9], theta)
    with pytest.raises(TypeError, match="attack set holds a non-integer"):
        injury_set(g, np.array([0.0]))
    with pytest.raises(TypeError, match="attack set holds a non-integer"):
        security_threshold(g, [True], [0.5], 0.1)
    with pytest.raises(TypeError, match="attack order holds a non-integer"):
        prefix_infection_counts(g, [0, 1.5], theta)


def test_attack_out_of_range():
    g = star_graph(3)
    with pytest.raises(IndexError, match="attack set.*out of range"):
        infection_set(g, {9}, uniform_thresholds(g, 0.5))
    with pytest.raises(IndexError, match="attack set.*out of range"):
        injury_set(g, [0, 4])
    with pytest.raises(IndexError, match="attack set.*out of range"):
        security_threshold(g, [4], [0.5], 0.1)


# ---- injury_set -----------------------------------------------------------------

def test_injury_cycle_minus_one():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert injury_set(g, {0}).size == 0


def test_injury_star_center():
    g = star_graph(4)
    assert injury_set(g, {0}).tolist() == [2, 3, 4]  # LCC = {1} by tie rule


def test_injury_empty_attack_connected():
    g = path_graph(5)
    assert injury_set(g, set()).size == 0


# ---- top_degree_nodes -------------------------------------------------------------

def test_top_degree_star():
    g = star_graph(4)
    assert top_degree_nodes(g, 1).tolist() == [0]


def test_top_degree_bounds():
    g = star_graph(4)
    assert top_degree_nodes(g, 0).size == 0
    assert top_degree_nodes(g, 5).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        top_degree_nodes(g, 6)


def test_top_degree_tie_by_id():
    g = path_graph(4)  # degrees 1,2,2,1
    assert top_degree_nodes(g, 1).tolist() == [1]
    assert top_degree_nodes(g, 3).tolist() == [0, 1, 2]


# ---- security_threshold --------------------------------------------------------------

def test_security_threshold_attack_exceeds_budget():
    g = cl.gen_er(100, 4, master_seed=0)
    attack = top_degree_nodes(g, 20)  # 20 > 0.1 * 100
    grid = [0.1, 0.5, 1.0]
    assert security_threshold(g, attack, grid, 0.1) is None


def test_security_threshold_star_center_never_contained():
    g = star_graph(4)
    assert security_threshold(g, {0}, [0.2, 0.6, 1.0], 0.1) is None


def test_security_threshold_trivial_grid_one():
    # two far-apart attacked nodes, phi=1 stops spread at once
    g = path_graph(50)
    assert security_threshold(g, {10}, [1.0], 0.1) == 1.0


def test_security_threshold_validation():
    g = star_graph(3)
    with pytest.raises(ValueError):
        security_threshold(g, {0}, [], 0.1)
    with pytest.raises(ValueError):
        security_threshold(g, {0}, [0.5, 0.2], 0.1)
    with pytest.raises(ValueError):
        security_threshold(g, {0}, [0.5, 1.5], 0.1)
    with pytest.raises(ValueError):
        security_threshold(g, {0}, [0.5], 1.0)


def test_security_threshold_monotone_in_epsilon():
    g = cl.gen_er(2_000, 6, master_seed=4)
    attack = top_degree_nodes(g, 8)
    grid = [i / 100 for i in range(1, 51)]
    values = []
    for eps in (0.05, 0.1, 0.2):
        phi = security_threshold(g, attack, grid, eps)
        assert phi is not None
        values.append(phi)
    assert values[0] >= values[1] >= values[2]


# ---- community classification -----------------------------------------------------

def test_classify_requires_homochromatic():
    g = cl.gen_security(200, 3, 1.5, master_seed=2)
    coms = communities(g)
    theta = uniform_thresholds(g, 0.5)
    big = max(coms, key=lambda c: c.size)
    broken = cl.Community(color=big.color,
                          members=np.arange(g.n, dtype=np.int64),
                          seed=big.seed)
    with pytest.raises(ValueError, match="homochromatic"):
        classify_community(g, broken, theta)


@pytest.mark.parametrize("case, message", [
    ("empty", "community has no members"),
    ("seed-outside", "community seed is not a member"),
    ("seed-unflagged", "is not flagged as a seed"),
])
def test_classify_rejects_bad_community(case, message):
    # colors 0 = {0 (seed), 1, 2} and 1 = {3 (seed), 4}
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                         color=np.array([0, 0, 0, 1, 1]),
                         is_seed=np.array([1, 0, 0, 1, 0], dtype=bool))
    members, seed = {"empty": ([], 0), "seed-outside": ([0, 1, 2], 3),
                     "seed-unflagged": ([0, 1, 2], 1)}[case]
    x = cl.Community(color=0, members=np.array(members, dtype=np.int64),
                     seed=seed)
    with pytest.raises(ValueError, match=message):
        classify_community(g, x, uniform_thresholds(g, 0.5))


@pytest.mark.parametrize("members, error, message", [
    ([-1], IndexError, r"community members holds a node id out of range \[0, 5\)"),
    ([5], IndexError, r"community members holds a node id out of range \[0, 5\)"),
    ([1.5], TypeError, "community members holds a non-integer node id"),
])
def test_classify_checks_member_ids(members, error, message):
    # colors 0 = {0 (seed), 1, 2} and 1 = {3 (seed), 4}; node 4 is n - 1
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                         color=np.array([0, 0, 0, 1, 1]),
                         is_seed=np.array([1, 0, 0, 1, 0], dtype=bool))
    x = cl.Community(color=1, members=np.array(members), seed=3)
    with pytest.raises(error, match=message):
        classify_community(g, x, uniform_thresholds(g, 0.5))


def test_classify_requires_whole_color_class():
    g = cl.gen_security(200, 3, 1.5, master_seed=2)
    theta = uniform_thresholds(g, 0.5)
    big = max(communities(g), key=lambda c: c.size)
    other = big.members[big.members != big.seed][0]
    broken = {
        "partial": big.members[big.members != other],
        "repeat-added": np.append(big.members, big.seed),
        "repeat-in-place": np.where(big.members == other, big.seed,
                                    big.members),
    }
    for name, members in broken.items():
        x = cl.Community(color=big.color, members=members, seed=big.seed)
        with pytest.raises(ValueError, match="whole color class"):
            classify_community(g, x, theta)
    # the whole class in any order is accepted
    shuffled = cl.Community(color=big.color, members=big.members[::-1],
                            seed=big.seed)
    assert classify_community(g, shuffled, theta) is \
        classify_community(g, big, theta)


def test_classify_isolated_community_always_strong():
    # no edge leaves X, so no thresholds can reach its seed
    g = graph_from_edges(
        4, [(0, 1), (2, 3)],
        color=np.array([0, 0, 1, 1]),
        is_seed=np.array([True, False, True, False]))
    x = [c for c in communities(g) if c.color == 1][0]
    for theta in (uniform_thresholds(g, 0.01), uniform_thresholds(g, 1.0),
                  random_thresholds(g, 3)):
        assert classify_community(g, x, theta) is CommunityStrength.STRONG


def test_classify_phi_one_exact_rule():
    # under phi=1 a community is vulnerable iff its seed has no same-color
    # neighbor (circular dependence protects any seed with an inside edge)
    g = cl.gen_security(2_000, 4, 1.5, master_seed=6)
    theta = uniform_thresholds(g, 1.0)
    summary = 0
    for com in communities(g):
        inside = sum(1 for w in neighbors(g, com.seed)
                     if g.color[w] == com.color)
        expected = (CommunityStrength.VULNERABLE if inside == 0
                    else CommunityStrength.STRONG)
        assert classify_community(g, com, theta) is expected
        summary += expected is CommunityStrength.VULNERABLE
    assert count_vulnerable(g, theta) == summary


def test_classify_matches_global_cascade():
    # freezing the outside as infected equals running the full engine on V\X
    for seed in (3, 4):
        g = cl.gen_security(300, 3, 1.5, master_seed=seed)
        theta = random_thresholds(g, seed)
        for com in communities(g):
            outside = sorted(set(range(g.n)) - set(com.members.tolist()))
            if not outside:
                continue
            full = infection_set(g, outside, theta)
            expected = (CommunityStrength.VULNERABLE
                        if com.seed in set(full.infected.tolist())
                        else CommunityStrength.STRONG)
            assert classify_community(g, com, theta) is expected


def test_initial_only_graph_all_singletons_vulnerable_at_phi_one():
    # K_{d+1}: every seed's whole neighborhood lies outside its singleton set
    g = cl.gen_security(5, 4, 1.5, master_seed=0)
    theta = uniform_thresholds(g, 1.0)
    assert count_vulnerable(g, theta) == 5


def test_count_vulnerable_monotone_in_phi(security_mid):
    g = security_mid
    counts = [count_vulnerable(g, uniform_thresholds(g, phi))
              for phi in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_vulnerable_fraction_random_thresholds(security_mid):
    # a=1.5 is a weak-communities regime: singletons are always vulnerable
    # under random thresholds, and about half of all communities are.
    # Bound frozen from a 10-run measurement (max 0.591) plus headroom.
    g = security_mid
    n_coms = len(communities(g))
    fractions = [count_vulnerable(g, random_thresholds(g, t)) / n_coms
                 for t in range(10)]
    assert all(f <= 0.65 for f in fractions)
