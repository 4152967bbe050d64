"""Structural analysis of colored networks: communities, conductance,
degree priority, power-law fitting, distances, the community priority
tree, and seed-routed navigation.

Everything here is a pure function of an immutable graph; expensive
derived structures are memoized on the graph object, so repeated queries
on the same graph are cheap.  One community index (``_community_layout``,
built from one ``np.unique`` of the colors) is the only map from nodes to
communities: every community report, navigation and both containment
cascades in ``cascade`` read its arrays.  The other memoized structures
are two CSR views of ``g.adjacency()``: the intra-color CSR (same-color
edges only) and the seed CSR (seed-seed edges only), whose rows stay
ascending.

Distances and community diameters run one bit-parallel BFS
(``_bfs_levels``): up to 64 sources share a uint64 word per node, and
each level is one pass over the CSR.  Community diameters run every
member of every community as a source at once, over the intra-color CSR.
Navigation walks rows of the intra-color and seed CSRs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import EdgeTag, LabeledGraph, largest_connected_component
from .seeding import rng_from


@dataclass(frozen=True)
class Community:
    """A homochromatic node set with its distinguished seed node."""

    color: int
    members: np.ndarray  # sorted node ids
    seed: int

    @property
    def size(self) -> int:
        return int(self.members.shape[0])


def _color_ranks(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """The distinct colors, ascending, and each node's color rank (cached):
    the one grouping of nodes by color.  Any int64 color works."""
    return g.cached("color-ranks",
                    lambda: np.unique(g.color, return_inverse=True))


@dataclass(frozen=True)
class _Layout:
    """The community index; community k is the k-th smallest color.  Per
    node: ``index`` (its community) and ``lane`` (its rank among the
    community's members).  Per community: ``colors``, ``seeds`` and
    ``starts``; community k's members, ascending, are
    ``members[starts[k]:starts[k + 1]]``."""

    colors: np.ndarray
    index: np.ndarray
    lane: np.ndarray
    seeds: np.ndarray
    members: np.ndarray
    starts: np.ndarray


def _community_layout(g: LabeledGraph) -> _Layout:
    """The community index of g (cached).  Raises ValueError naming the
    smallest color that has no seed, or more than one."""

    def build():
        colors, index = _color_ranks(g)
        seed_nodes = np.flatnonzero(g.is_seed)
        counts = np.bincount(index[seed_nodes], minlength=colors.shape[0])
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            raise ValueError(f"color {int(colors[bad[0]])} has "
                             f"{int(counts[bad[0]])} seeds, expected exactly 1")
        seeds = np.empty(colors.shape[0], dtype=np.int64)
        seeds[index[seed_nodes]] = seed_nodes
        members = np.argsort(index, kind="stable")
        starts = np.concatenate(
            [[0], np.cumsum(np.bincount(index, minlength=colors.shape[0]))])
        lane = np.empty(g.n, dtype=np.int64)
        lane[members] = np.arange(g.n) - starts[index[members]]
        return _Layout(colors=colors, index=index, lane=lane, seeds=seeds,
                       members=members, starts=starts)

    return g.cached("community-layout", build)


def communities(g: LabeledGraph) -> list[Community]:
    """One community per color, in color order, partitioning the nodes.

    Raises ValueError when some color has no seed, or more than one
    (baseline ER/PA graphs have no seeds at all, so they are rejected).
    """

    def build() -> list[Community]:
        lay = _community_layout(g)
        return [Community(color=c, members=lay.members[a:b], seed=s)
                for c, s, a, b in zip(lay.colors.tolist(), lay.seeds.tolist(),
                                      lay.starts[:-1].tolist(),
                                      lay.starts[1:].tolist())]

    return g.cached("communities", build)


def conductance(g: LabeledGraph, w) -> float:
    """Phi(W) = cut(W, V\\W) / min(vol(W), vol(V\\W)), vol = degree sum.

    Requires a non-empty strict subset of the nodes; symmetric in W and
    its complement.
    """
    w = np.asarray(sorted(set(int(x) for x in w)), dtype=np.int64)
    if w.size == 0:
        raise ValueError("W must not be empty")
    if w.size >= g.n:
        raise ValueError("W must be a strict subset of the nodes")
    if w[0] < 0 or w[-1] >= g.n:
        raise IndexError("node id out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[w] = True
    cut = int(np.count_nonzero(mask[g.edge_u] != mask[g.edge_v]))
    vol_w = int(g.degrees[mask].sum())
    vol_rest = 2 * g.m - vol_w
    denom = min(vol_w, vol_rest)
    if denom == 0:
        raise ValueError("one side of the cut has zero volume")
    return cut / denom


@dataclass(frozen=True)
class CommunityConductance:
    """Cut, volume and conductance of one community against the rest."""

    size: int
    volume: int
    cut: int
    conductance: float


def community_conductances(g: LabeledGraph) -> dict[int, CommunityConductance]:
    """Conductance of every community, computed in one vectorized pass.

    Agrees with calling :func:`conductance` on each member set, but costs
    O(m) total instead of O(m) per community.
    """
    lay = _community_layout(g)
    n_coms = lay.colors.shape[0]
    vol = np.bincount(lay.index, weights=g.degrees.astype(np.float64),
                      minlength=n_coms).astype(np.int64)
    cu, cv = lay.index[g.edge_u], lay.index[g.edge_v]
    cross = cu != cv
    cut = (np.bincount(cu[cross], minlength=n_coms)
           + np.bincount(cv[cross], minlength=n_coms)).astype(np.int64)
    total_vol = 2 * g.m
    sizes = np.diff(lay.starts)
    out = {}
    for k, color in enumerate(lay.colors.tolist()):
        denom = min(int(vol[k]), total_vol - int(vol[k]))
        phi = float("inf") if denom == 0 else cut[k] / denom
        out[color] = CommunityConductance(
            size=int(sizes[k]), volume=int(vol[k]), cut=int(cut[k]),
            conductance=phi)
    return out


@dataclass(frozen=True)
class DegreePrioritySummary:
    """Vectorized degree-priority statistics for every node at once.

    Arrays of length n: the number of distinct neighbor colors, the largest
    and second-largest neighbor color class sizes (0 if absent), and the
    color of the largest class (-1 for isolated nodes; ties go to the
    smaller color id).
    """

    length: np.ndarray
    first_degree: np.ndarray
    second_degree: np.ndarray
    top_color: np.ndarray

    def own_color_first(self, g: LabeledGraph) -> np.ndarray:
        """Boolean mask: the node's own color is its largest neighbor class."""
        return self.top_color == g.color


def degree_priority_summary(g: LabeledGraph) -> DegreePrioritySummary:
    """Degree-priority statistics of every node in one pass over the edges.

    Colors are keyed by their rank among the distinct colors, so any int64
    color works; the graph need not have communities.  Each edge end packs
    (owner, neighbor color rank) into one int64 key, and one in-place sort
    of the 2m keys counts the pairs, so no other array of that length is
    alive at the same time."""
    colors, index = _color_ranks(g)
    n_colors = max(len(colors), 1)
    m = g.edge_u.shape[0]
    packed = np.concatenate([g.edge_u, g.edge_v])
    packed *= n_colors
    packed[:m] += index[g.edge_v]
    packed[m:] += index[g.edge_u]
    packed.sort()
    distinct = np.ones(2 * m, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=distinct[1:])
    starts = np.flatnonzero(distinct)
    keys = packed[starts]
    del packed, distinct
    counts = np.diff(starts, append=2 * m)
    owner_k = keys // n_colors
    color_k = keys % n_colors
    order = np.lexsort((color_k, -counts, owner_k))
    owner_s, color_s, count_s = owner_k[order], color_k[order], counts[order]
    _, first_idx = np.unique(owner_s, return_index=True)

    length = np.bincount(owner_s, minlength=g.n).astype(np.int64)
    first = np.zeros(g.n, dtype=np.int64)
    second = np.zeros(g.n, dtype=np.int64)
    top = np.full(g.n, -1, dtype=np.int64)
    heads = owner_s[first_idx]
    first[heads] = count_s[first_idx]
    top[heads] = colors[color_s[first_idx]]
    nxt = first_idx + 1
    ok = nxt < owner_s.shape[0]
    ok[ok] = owner_s[nxt[ok]] == heads[ok]
    second[owner_s[nxt[ok]]] = count_s[nxt[ok]]
    return DegreePrioritySummary(length=length, first_degree=first,
                                 second_degree=second, top_color=top)


@dataclass(frozen=True)
class PowerlawFit:
    """Discrete MLE power-law fit with a CCDF goodness diagnostic."""

    exponent: float
    d_min: int
    sample_count: int
    ccdf_r2: float


def powerlaw_exponent(degrees, d_min: int) -> PowerlawFit:
    """Discrete maximum-likelihood power-law exponent of the tail >= d_min.

    alpha = 1 + m / sum(ln(x_i / (d_min - 0.5))) over the m samples with
    x_i >= d_min (the Clauset–Shalizi–Newman discrete approximation).
    The diagnostic R^2 comes from a linear fit of the log-log CCDF.
    Requires at least 100 tail samples; identical samples are rejected
    (the exponent is unidentifiable).
    """
    if d_min < 1:
        raise ValueError("d_min must be at least 1")
    x = np.asarray(degrees, dtype=np.float64)
    tail = x[x >= d_min]
    if tail.shape[0] < 100:
        raise ValueError(
            f"need at least 100 samples >= d_min, got {tail.shape[0]}")
    if np.all(tail == tail[0]):
        raise ValueError("all tail samples are equal; exponent undefined")
    m = tail.shape[0]
    alpha = 1.0 + m / np.log(tail / (d_min - 0.5)).sum()
    values, counts = np.unique(tail, return_counts=True)
    ccdf = counts[::-1].cumsum()[::-1] / m  # P(X >= value)
    # the least-squares correlation in linregress's own arithmetic; both
    # sums are positive, as the values are distinct and the CCDF falls
    ssxm, ssxym, _, ssym = np.cov(np.log(values), np.log(ccdf), bias=1).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return PowerlawFit(
        exponent=float(alpha),
        d_min=int(d_min),
        sample_count=int(m),
        ccdf_r2=float(r ** 2),
    )


@dataclass(frozen=True)
class DistanceStats:
    """Sampled node-to-node distances on the largest component."""

    avg_distance: float
    est_diameter: int
    pairs_sampled: int
    pairs_unreachable: int


def _bfs_levels(indptr, indices, seen):
    """Bit-parallel BFS over a symmetric CSR, one level per step.

    ``seen`` is a (words, n) uint64 array: bit b of ``seen[w, v]`` says
    that BFS lane 64 * w + b has reached node v; set each lane's source
    bit before the call.  Every level ORs the newly reached bits of all
    neighbors into each node, in one pass over the CSR per word.
    ``seen`` is updated in place.  Yields (level, nodes, new) for every
    level that reaches something: the nodes with a new bit, ascending,
    and the (words, n) array of the bits first set at that level.
    """
    # reduceat reads one element for an empty segment (and fails on a
    # trailing one), so rows without neighbors are left out
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    frontier = seen.copy()
    level = 0
    while rows.size:
        level += 1
        reach = np.zeros_like(seen)
        for word in range(seen.shape[0]):
            reach[word, rows] = np.bitwise_or.reduceat(
                frontier[word, indices], starts)
        frontier = reach & ~seen
        hit = np.flatnonzero(frontier.any(axis=0))
        if hit.size == 0:
            return
        seen |= frontier
        yield level, hit, frontier


def _lane_bits(n: int, node: np.ndarray, lane: np.ndarray) -> np.ndarray:
    """(words, n) uint64 bits with lane ``lane[i]`` set at node ``node[i]``
    (one lane per node)."""
    words = int(lane.max()) // 64 + 1 if lane.size else 1
    bits = np.zeros((words, n), dtype=np.uint64)
    bits[lane // 64, node] = np.uint64(1) << (lane % 64).astype(np.uint64)
    return bits


def sample_lcc_pairs(g: LabeledGraph, sample_pairs: int, seed: int = 0,
                     max_sources: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Sample node pairs (u != v) from the largest component.

    Small components are enumerated exactly.  Large ones use stratified
    sampling: up to max_sources uniform source nodes, each paired with
    uniform targets, so distance queries need few BFS passes while the
    mean pair distance stays an unbiased estimate.
    """
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be at least 1")
    lcc = largest_connected_component(g)
    if lcc.size < 2:
        raise ValueError("largest component has fewer than 2 nodes")
    total_pairs = lcc.size * (lcc.size - 1) // 2
    if total_pairs <= sample_pairs:
        us, vs = np.triu_indices(lcc.size, k=1)
        return lcc[us], lcc[vs]
    rng = rng_from(seed, "distance-pairs", g.n, g.m)
    n_sources = int(min(max_sources, sample_pairs, lcc.size))
    sources = lcc[rng.choice(lcc.size, size=n_sources, replace=False)]
    per = -(-sample_pairs // n_sources)  # ceil division
    pair_u = np.repeat(sources, per)[:sample_pairs]
    pair_v = lcc[rng.integers(0, lcc.size, size=sample_pairs)]
    clash = pair_u == pair_v
    while clash.any():
        pair_v[clash] = lcc[rng.integers(0, lcc.size, size=int(clash.sum()))]
        clash = pair_u == pair_v
    return pair_u, pair_v


_SOURCES_PER_PASS = 256  # BFS lanes per kernel pass: 4 words per node


def pair_distances(g: LabeledGraph, pair_u: np.ndarray,
                   pair_v: np.ndarray) -> np.ndarray:
    """BFS distance for each (u, v) pair; inf when unreachable."""
    pair_u = np.asarray(pair_u, dtype=np.int64)
    pair_v = np.asarray(pair_v, dtype=np.int64)
    sources, inverse = np.unique(pair_u, return_inverse=True)
    out = np.where(pair_u == pair_v, 0.0, np.inf)
    indptr, indices = g.adjacency()
    for lo in range(0, sources.shape[0], _SOURCES_PER_PASS):
        chunk = sources[lo:lo + _SOURCES_PER_PASS]
        seen = _lane_bits(g.n, chunk, np.arange(chunk.shape[0]))
        ask = np.flatnonzero((inverse >= lo) & (inverse < lo + chunk.shape[0]))
        lane = inverse[ask] - lo
        for level, _, new in _bfs_levels(indptr, indices, seen):
            bits = new[lane // 64, pair_v[ask]] >> (lane % 64).astype(np.uint64)
            got = (bits & np.uint64(1)) == 1
            out[ask[got]] = level
            ask, lane = ask[~got], lane[~got]
            if ask.size == 0:
                break
    return out


def distance_stats(g: LabeledGraph, sample_pairs: int, seed: int = 0) -> DistanceStats:
    """Average distance over sampled pairs in the LCC plus a double-sweep
    diameter estimate.

    When the LCC has at most sample_pairs distinct pairs they are all
    used exactly; otherwise pairs come from :func:`sample_lcc_pairs`.
    Unreachable pairs cannot occur for pairs inside the LCC but are
    excluded and counted defensively.
    """
    pair_u, pair_v = sample_lcc_pairs(g, sample_pairs, seed)
    lcc = largest_connected_component(g)
    dists = pair_distances(g, pair_u, pair_v)
    reachable = np.isfinite(dists)
    if not reachable.any():
        raise ValueError("no reachable pairs sampled")

    # double-sweep: repeated BFS to the farthest node lower-bounds the diameter
    indptr, indices = g.adjacency()
    start = int(lcc[np.argmax(g.degrees[lcc])])
    best = 0
    for _ in range(4):
        # the farthest node from start (smallest id at the last level)
        far, reach = start, 0
        seen = _lane_bits(g.n, np.asarray([start]), np.zeros(1, dtype=np.int64))
        for level, hit, _ in _bfs_levels(indptr, indices, seen):
            far, reach = int(hit[0]), level
        if reach <= best:
            break
        best = reach
        start = far
    return DistanceStats(
        avg_distance=float(dists[reachable].mean()),
        est_diameter=best,
        pairs_sampled=int(dists.shape[0]),
        pairs_unreachable=int((~reachable).sum()),
    )


def community_diameters(g: LabeledGraph) -> dict[int, float]:
    """Exact BFS diameter of every induced community subgraph.

    Disconnected communities report math.inf.  Returned as a dict keyed
    by color.  One bit-parallel BFS over the intra-color CSR runs every
    member of every community as a source at once: a node's lane is its
    rank among its community's members, so the lanes of different
    communities share words without meeting.
    """
    lay = _community_layout(g)
    indptr, indices = intra_color_adjacency(g)
    seen = _lane_bits(g.n, np.arange(g.n), lay.lane)
    diameter = np.zeros(lay.colors.shape[0])
    for level, hit, _ in _bfs_levels(indptr, indices, seen):
        diameter[lay.index[hit]] = level
    # connected iff every member was reached from its smallest member
    # (lane 0): a member outside that member's component lacks its bit
    diameter[lay.index[(seen[0] & np.uint64(1)) == 0]] = np.inf
    return dict(zip(lay.colors.tolist(), diameter.tolist()))


@dataclass(frozen=True)
class PriorityTree:
    """Contracted community graph after dropping seed-link edges.

    Vertex 0 is the root (all communities seeded by initial-graph nodes,
    contracted together); vertex i > 0 is the community of
    vertex_colors[i].  Edges run child -> parent, i.e. from the
    later-born community to the earlier-born one.  height is the longest
    directed path to a sink (the root, when the graph is a tree).
    violations lists the reasons is_tree failed, if any.
    """

    vertex_colors: tuple[int | None, ...]
    vertex_births: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    is_tree: bool
    height: int
    violations: tuple[str, ...]


def infection_priority_tree(g: LabeledGraph) -> PriorityTree:
    """Delete seed-link edges, contract each color class (all communities
    of initial-graph seeds merge into one root), collapse parallel edges,
    and orient every edge from the later-born community to the earlier.
    """
    tags = g.edge_tag
    if g.m and (tags == int(EdgeTag.PLAIN)).any():
        raise ValueError("graph has PLAIN edges; provenance is missing")
    if not g.is_seed.any():
        raise ValueError("graph has no seeds; provenance is missing")
    lay = _community_layout(g)
    init_mask = tags == int(EdgeTag.INITIAL)
    if not init_mask.any():
        raise ValueError("graph has no INITIAL edges; provenance is missing")
    initial = np.zeros(g.n, dtype=bool)
    initial[g.edge_u[init_mask]] = True
    initial[g.edge_v[init_mask]] = True

    # vertices 1.. are the communities of later seeds, in birth order
    later = np.flatnonzero(~initial[lay.seeds])
    later = later[np.argsort(g.birth_time[lay.seeds[later]], kind="stable")]
    births = np.concatenate([[0], g.birth_time[lay.seeds[later]]])
    vertex_colors = (None,) + tuple(lay.colors[later].tolist())
    vmap = np.zeros(lay.colors.shape[0], dtype=np.int64)
    vmap[later] = np.arange(1, later.size + 1)

    keep = tags != int(EdgeTag.SEED_LINK)
    vu = vmap[lay.index[g.edge_u[keep]]]
    vv = vmap[lay.index[g.edge_v[keep]]]
    cross = vu != vv
    a, b = vu[cross], vv[cross]
    child = np.where(births[a] > births[b], a, b)
    parent = np.where(births[a] > births[b], b, a)
    edge_arr = np.unique(np.stack([child, parent], axis=1), axis=0)
    edge_set = [(c, p) for c, p in edge_arr.tolist()]

    violations: list[str] = []
    n_vertices = births.shape[0]
    out_deg = np.bincount(edge_arr[:, 0], minlength=n_vertices)
    if out_deg[0] != 0:
        violations.append("root has an outgoing edge")
    for v in range(1, n_vertices):
        if out_deg[v] == 0:
            violations.append(
                f"community {vertex_colors[v]} has no parent (unreachable)")
        elif out_deg[v] > 1:
            violations.append(
                f"community {vertex_colors[v]} has {out_deg[v]} parents")

    # longest directed path; edges always point to earlier births and the
    # vertices are numbered in birth order, so one pass over the edges
    # sorted by child settles every parent before its children read it,
    # even when the graph is not a tree
    depth = [0] * n_vertices
    for c, p in edge_set:
        depth[c] = max(depth[c], depth[p] + 1)
    return PriorityTree(
        vertex_colors=vertex_colors,
        vertex_births=tuple(births.tolist()),
        edges=tuple(edge_set),
        is_tree=not violations,
        height=max(depth),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class NavigationResult:
    """Outcome of one navigation query: the path (None on failure),
    its hop count, and how many nodes the search expanded."""

    path: tuple[int, ...] | None
    hops: int
    visited: int

    @property
    def succeeded(self) -> bool:
        return self.path is not None


def _sub_adjacency(g: LabeledGraph, key: str, keep_edge):
    """CSR (indptr, indices) of the edges (u, v) where keep_edge(u, v)
    holds, as a cached view of g.adjacency(); rows stay ascending."""

    def build():
        indptr, indices = g.adjacency()
        rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
        keep = keep_edge(rows, indices)
        counts = np.bincount(rows[keep], minlength=g.n)
        return (np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
                indices[keep])

    return g.cached(key, build)


def intra_color_adjacency(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the same-color edges only (cached).

    Every row lists a node's neighbors in its own community, ascending.
    """
    return _sub_adjacency(g, "intra-color-adjacency",
                          lambda u, v: g.color[u] == g.color[v])


def _seed_adjacency(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the seed-seed edges only (cached)."""
    return _sub_adjacency(g, "seed-adjacency",
                          lambda u, v: g.is_seed[u] & g.is_seed[v])


def _bfs_path(indptr, indices, start: int,
              goal: int) -> tuple[list[int] | None, int]:
    """Shortest path over CSR rows; returns (path, nodes expanded)."""
    if start == goal:
        return [start], 1
    parent = {start: start}
    queue = deque([start])
    expanded = 0
    while queue:
        u = queue.popleft()
        expanded += 1
        for w in indices[indptr[u]:indptr[u + 1]].tolist():
            if w not in parent:
                parent[w] = u
                if w == goal:
                    path = [w]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1], expanded
                queue.append(w)
    return None, expanded


def _bidirectional_bfs(indptr, indices, start: int,
                       goal: int) -> tuple[list[int] | None, int]:
    """Bidirectional BFS over CSR rows between two distinct nodes; returns
    (shortest path, nodes expanded)."""
    orig_start = start
    parent_f = {start: start}
    parent_b = {goal: goal}
    frontier_f = [start]
    frontier_b = [goal]
    expanded = 0

    while frontier_f and frontier_b:
        # always expand the smaller frontier
        if len(frontier_f) > len(frontier_b):
            frontier_f, frontier_b = frontier_b, frontier_f
            parent_f, parent_b = parent_b, parent_f
            start, goal = goal, start
        nxt = []
        for u in frontier_f:
            expanded += 1
            for w in indices[indptr[u]:indptr[u + 1]].tolist():
                if w in parent_b:
                    # stitch: start ..parent_f.. u - w ..parent_b.. goal
                    fore = [w, u] if w != u else [w]
                    while fore[-1] != start:
                        fore.append(parent_f[fore[-1]])
                    fore.reverse()
                    back = w
                    while back != goal:
                        back = parent_b[back]
                        fore.append(back)
                    if fore[0] != orig_start:
                        fore.reverse()
                    return fore, expanded
                if w not in parent_f:
                    parent_f[w] = u
                    nxt.append(w)
        frontier_f = nxt
    return None, expanded


def navigate(g: LabeledGraph, u: int, v: int, hop_budget: int) -> NavigationResult:
    """Three-stage seed routing: climb from u to its community seed,
    cross the seed subgraph to v's community seed, then descend to v.

    Endpoints in the same community route directly inside it.  Returns a
    failed result when any stage is disconnected or the stitched path
    exceeds hop_budget.  The path is simple and valid in g.
    """
    if not g.is_seed.any():
        raise ValueError("graph has no colors/seeds; navigation needs them")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError("node id out of range")
    if u == v:
        return NavigationResult(path=(u,), hops=0, visited=1)
    intra = intra_color_adjacency(g)
    lay = _community_layout(g)
    if g.color[u] == g.color[v]:
        legs = [(_bfs_path, intra, u, v)]
    else:
        seed_u, seed_v = int(lay.seeds[lay.index[u]]), int(lay.seeds[lay.index[v]])
        legs = [(_bfs_path, intra, u, seed_u),
                (_bidirectional_bfs, _seed_adjacency(g), seed_u, seed_v),
                (_bfs_path, intra, seed_v, v)]
    path, visited = [u], 0
    for search, csr, start, goal in legs:
        leg, expanded = search(*csr, start, goal)
        visited += expanded
        if leg is None:
            break
        path += leg[1:]
    else:
        if len(path) - 1 <= hop_budget:
            return NavigationResult(path=tuple(path), hops=len(path) - 1,
                                    visited=visited)
    return NavigationResult(path=None, hops=-1, visited=visited)
