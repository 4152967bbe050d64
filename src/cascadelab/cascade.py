"""Threshold-cascade semantics, physical attacks, and security thresholds.

The cascade model: every node x has a threshold phi(x) in (0, 1]; a node
outside the initial attack set becomes infected once the infected fraction
of its neighbors reaches phi(x).  Because infection is monotone, the final
set is the least fixed point and does not depend on update order; the
implementation propagates round-synchronously with vectorized frontier
expansion, O(m) work per cascade.

One int64 array, ``cnt``, is a cascade's whole state: a healthy node's
count of infected neighbors, or ``_INFECTED`` for an infected node, so
``cnt < 0`` is the infected set.  After set-up only two steps change it.
The infect step, ``_infect``, marks nodes infected and counts them into
their neighbors.  The qualify loop, ``_propagate``, infects through it the
candidates that meet ``cnt / deg >= phi`` in IEEE doubles (so it agrees
bit-for-bit with a naive rescan comparing fractions), then tests their
neighbors; an infected node's negative count never qualifies.  It yields
each round's count before infecting that round, so a caller can stop a
cascade between rounds; the others exhaust it.

Top-degree attack sets are nested prefixes of one degree order, so
``prefix_infection_counts`` resumes each attack size from the previous
fixed point: with F(S) the final set from S and S a subset of S', the
cascade from F(S) plus S' ends at F(S').  ``prefix_injury_counts``
builds the injury curve in one reverse union-find pass over the removed
nodes.  ``security_threshold`` warm-starts across thresholds instead of
attack sets: under a uniform phi a node that qualifies at some phi
qualifies at every lower one, so the infected set at a lower phi contains
the set at any higher phi (threshold infection is monotone; Kempe,
Kleinberg & Tardos, KDD 2003).  It walks the grid from its top value down
in one cascade state, and stops in the round that passes its budget.
``classify_community`` and ``count_vulnerable`` share one containment
cascade, ``_contained``: over the intra-color CSR, with every count
preloaded from the node's cross-color degree, for one color class or for
all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import (LabeledGraph, _component_labels, _distinct,
                    _gather_neighbors, _node_ids, largest_connected_component)
from .seeding import rng_from
from .structure import Community, _community_layout, intra_color_adjacency


@dataclass(frozen=True)
class ThresholdAssignment:
    """Per-node thresholds phi in (0, 1], checked on construction.

    A degree-0 node (phi 1.0 under random thresholds) never qualifies,
    because it is in no neighbor list; it joins an infection set only
    when attacked directly.
    """

    phi: np.ndarray

    def __post_init__(self):
        bad = np.flatnonzero(~((self.phi > 0.0) & (self.phi <= 1.0)))
        if bad.size:
            raise ValueError(f"node {bad[0]} has threshold "
                             f"{self.phi[bad[0]]}, outside (0, 1]")


def uniform_thresholds(g: LabeledGraph, phi: float) -> ThresholdAssignment:
    """The same threshold phi for every node; requires 0 < phi <= 1."""
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"uniform threshold must be in (0, 1], got {phi}")
    return ThresholdAssignment(np.full(g.n, float(phi)))


def random_thresholds(g: LabeledGraph, trial_seed: int = 0) -> ThresholdAssignment:
    """phi(v) = r / deg(v) with r uniform on {1, ..., deg(v)}.

    Deterministic in trial_seed.  A degree-0 node draws r = 1 and gets
    phi 1.0; it never qualifies, being in no neighbor list.
    """
    deg = g.degrees
    rng = rng_from(trial_seed, "random-thresholds")
    # a bound admitting one value (deg <= 1) takes no bits from the stream
    r = rng.integers(1, np.maximum(deg, 1) + 1)
    return ThresholdAssignment(r / np.maximum(deg, 1))


@dataclass(frozen=True)
class CascadeOutcome:
    """Final infection set plus the per-round growth trace.

    growth[0] is the attack-set size; each later entry is the number of
    nodes newly infected in that propagation round (all positive).
    rounds == len(growth) - 1 is the number of spreading rounds.
    """

    infected: np.ndarray
    rounds: int
    growth: tuple[int, ...]
    num_nodes: int

    @property
    def fraction(self) -> float:
        return self.infected.shape[0] / self.num_nodes if self.num_nodes else 0.0


def _phi(g: LabeledGraph, theta: ThresholdAssignment) -> np.ndarray:
    if theta.phi.shape[0] != g.n:
        raise ValueError("threshold assignment does not match graph size")
    return theta.phi


_INFECTED = -(1 << 62)  # an infected node's count: far below what it can gain


def _infect(indptr, indices, cnt, nodes) -> np.ndarray:
    """The infect step: mark ``nodes`` (healthy, no repeats) infected and
    count each into its neighbors; returns those neighbors, with repeats."""
    cnt[nodes] = _INFECTED
    nbrs = _gather_neighbors(indptr, indices, nodes)
    np.add.at(cnt, nbrs, 1)
    return nbrs


def _propagate(indptr, indices, deg, phi, cnt, cand):
    """The qualify loop: infect the candidates ``cand`` (with repeats, and
    infected ones among them) with ``cnt / deg >= phi``, then test their
    neighbors, until none qualifies.  An infected candidate's negative count
    never qualifies; a healthy one must have ``cnt > 0``, so deg >= 1.
    ``cnt`` is the caller's state.  Yields each round's count, then infects it."""
    while True:
        hit = cand[cnt[cand] / deg[cand] >= phi[cand]]
        if hit.size == 0:
            return
        frontier = hit if hit.size == 1 else _distinct(hit)
        yield int(frontier.size)
        cand = _infect(indptr, indices, cnt, frontier)


def infection_set(g: LabeledGraph, s, theta: ThresholdAssignment) -> CascadeOutcome:
    """Least fixed point of threshold infection starting from attack set s.

    Round-synchronous propagation; the final set is order-independent
    because the dynamics are monotone.
    """
    attack = _node_ids(s, g.n, "attack set", as_set=True)
    indptr, indices = g.adjacency()
    cnt = np.zeros(g.n, dtype=np.int64)
    nbrs = _infect(indptr, indices, cnt, attack)
    growth = [int(attack.size), *_propagate(
        indptr, indices, g.degrees, _phi(g, theta), cnt, nbrs)]
    return CascadeOutcome(
        infected=np.flatnonzero(cnt < 0).astype(np.int64),
        rounds=len(growth) - 1,
        growth=tuple(growth),
        num_nodes=g.n,
    )


def prefix_infection_counts(g: LabeledGraph, order,
                            theta: ThresholdAssignment) -> np.ndarray:
    """Infected count for every attack prefix ``order[:k]``, k = 1..len(order).

    Entry k-1 equals ``infection_set(g, order[:k], theta).infected.size``:
    each prefix resumes the cascade from the previous fixed point, so the
    whole sweep costs about one cascade.
    """
    order = _node_ids(order, g.n, "attack order")
    phi = _phi(g, theta)
    deg = g.degrees
    indptr, indices = g.adjacency()
    cnt = np.zeros(g.n, dtype=np.int64)
    counts = np.empty(order.size, dtype=np.int64)
    total = 0
    for i in range(order.size):
        if cnt[order[i]] >= 0:
            nbrs = _infect(indptr, indices, cnt, order[i:i + 1])
            total += 1 + sum(_propagate(indptr, indices, deg, phi, cnt, nbrs))
        counts[i] = total
    return counts


def injury_set(g: LabeledGraph, s) -> np.ndarray:
    """Survivors disconnected from the largest component after deleting s.

    The deleted nodes themselves are not counted as injured.  Returns a
    sorted int64 array.
    """
    attack = _node_ids(s, g.n, "attack set", as_set=True)
    lcc = largest_connected_component(g, excluded=attack)
    injured = np.ones(g.n, dtype=bool)
    injured[attack] = False
    injured[lcc] = False
    return np.flatnonzero(injured).astype(np.int64)


def prefix_injury_counts(g: LabeledGraph, order) -> np.ndarray:
    """Injured count for every removal prefix ``order[:k]``, k = 1..len(order).

    Entry k-1 equals ``injury_set(g, order[:k]).size``, that is
    n - k - (largest component size of g minus order[:k]).  One component
    labelling of g minus the whole order, then the removed nodes are added
    back in reverse order with union-find.  order must not repeat a node.
    """
    order = _node_ids(order, g.n, "removal order")
    n, size = g.n, order.size
    if np.unique(order).size != size:
        raise ValueError("removal order repeats a node")
    keep = np.ones(n, dtype=bool)
    keep[order] = False
    # union-find over components named by their smallest id; a removed
    # node is a singleton under its own id, and only a merged name has a parent
    comp_of = _component_labels(g, keep)
    sizes = np.bincount(comp_of, minlength=n)
    parent = {}

    def find(c):
        while c in parent:
            parent[c] = c = parent.get(parent[c], parent[c])  # path halving
        return c

    indptr, indices = g.adjacency()
    lcc = int(sizes[comp_of[keep]].max(initial=0))  # no removed id labels a kept node
    counts = np.empty(size, dtype=np.int64)
    for k in range(size, 0, -1):
        counts[k - 1] = n - k - lcc
        v = order[k - 1]
        keep[v] = True  # v rejoins: state of prefix k-1
        nbrs = indices[indptr[v]:indptr[v + 1]]
        root = find(int(comp_of[v]))
        for c in np.unique(comp_of[nbrs[keep[nbrs]]]).tolist():
            other = find(c)
            if other != root:
                parent[other] = root
                sizes[root] += sizes[other]
        lcc = max(lcc, sizes[root])
    return counts


def degree_order(g: LabeledGraph, k: int) -> np.ndarray:
    """The k highest-degree nodes in descending degree order, ties broken
    toward smaller ids; every prefix is a top-degree attack set."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k must be in [0, n], got {k}")
    return np.lexsort((np.arange(g.n), -g.degrees))[:k].astype(np.int64)


def top_degree_nodes(g: LabeledGraph, k: int) -> np.ndarray:
    """The k highest-degree nodes, ties broken toward smaller ids (sorted)."""
    return np.sort(degree_order(g, k))


def _grid_error(grid, name: str) -> str | None:
    """What keeps grid from being a phi grid (non-empty, within (0, 1] and
    strictly ascending), in a message naming it ``name``; None if nothing."""
    if not grid:
        return f"{name} must not be empty"
    if any(not 0.0 < x <= 1.0 for x in grid):
        return f"{name} values must lie in (0, 1]"
    if any(b <= a for a, b in zip(grid, grid[1:])):
        return f"{name} must be strictly ascending"
    return None


def security_threshold(g: LabeledGraph, s, grid, epsilon: float):
    """Smallest phi in grid whose uniform-threshold cascade from s infects
    at most epsilon * n nodes; None when no grid value qualifies.

    grid must be sorted ascending with values in (0, 1]; 0 < epsilon < 1.

    One descending sweep, about one cascade in all: the infected set only
    grows as phi falls, so each lower grid value resumes the cascade from
    the fixed point above it, with every healthy node that has an infected
    neighbor as a candidate.  The sweep ends inside the cascade that
    passes the budget, before the round that passes it is infected.
    """
    grid = [float(x) for x in grid]
    if error := _grid_error(grid, "phi grid"):
        raise ValueError(error)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    attack = _node_ids(s, g.n, "attack set", as_set=True)
    budget = epsilon * g.n
    indptr, indices = g.adjacency()
    cnt = np.zeros(g.n, dtype=np.int64)
    _infect(indptr, indices, cnt, attack)
    total = attack.size
    if total > budget:
        return None
    answer = None
    for phi in reversed(grid):
        # a zero-stride view gives the kernel phi per node without an array
        for grown in _propagate(indptr, indices, g.degrees, np.broadcast_to(phi, g.n),
                                cnt, np.flatnonzero(cnt > 0)):
            total += grown
            if total > budget:
                return answer
        answer = phi
    return answer


class CommunityStrength(Enum):
    STRONG = "strong"
    VULNERABLE = "vulnerable"


def _contained(g: LabeledGraph, theta: ThresholdAssignment,
               nodes: np.ndarray) -> np.ndarray:
    """The containment cascade of the communities holding ``nodes``
    (whole color classes): every node outside its own community counts
    as infected, so each node's count starts at its cross-color degree,
    and infection spreads over the intra-color CSR only.  No intra-color
    edge leaves a community, so each community's part is its own test.
    Returns the infected mask."""
    phi = _phi(g, theta)
    indptr, indices = intra_color_adjacency(g)
    cnt = g.degrees - np.diff(indptr)
    for _ in _propagate(indptr, indices, g.degrees, phi, cnt, nodes[cnt[nodes] > 0]):
        pass  # run to the fixed point
    return cnt < 0


def classify_community(g: LabeledGraph, x: Community,
                       theta: ThresholdAssignment) -> CommunityStrength:
    """STRONG iff the community's seed stays uninfected when every node
    outside the community is infected and infection propagates inside.

    Raises ValueError when x is not homochromatic, is not its whole color
    class, or its seed is wrong; TypeError or IndexError for a member id
    that is not an integer or not a node.
    """
    members = _node_ids(x.members, g.n, "community members")
    if members.size == 0:
        raise ValueError("community has no members")
    cols = g.color[members]
    if not (cols == cols[0]).all():
        raise ValueError("community members are not homochromatic")
    lay = _community_layout(g)
    k = lay.index[members[0]]
    whole = lay.members[lay.starts[k]:lay.starts[k + 1]]
    if not np.array_equal(np.sort(members), whole):
        raise ValueError(
            f"community members are not the whole color class {int(cols[0])}")
    if x.seed not in whole:
        raise ValueError("community seed is not a member")
    if not g.is_seed[x.seed]:
        raise ValueError(f"node {x.seed} is not flagged as a seed")
    return (CommunityStrength.VULNERABLE if _contained(g, theta, whole)[x.seed]
            else CommunityStrength.STRONG)


def count_vulnerable(g: LabeledGraph, theta: ThresholdAssignment) -> int:
    """Number of vulnerable communities under the given thresholds.

    One joint containment cascade classifies every community at once,
    each community's part being exactly its ``classify_community``
    cascade.
    """
    seeds = _community_layout(g).seeds
    return int(np.count_nonzero(_contained(g, theta, np.arange(g.n))[seeds]))
