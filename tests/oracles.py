"""Independent reference implementations used to check the library.

``graph_from_edges`` builds a graph from edge tuples for the tests (it
was ``LabeledGraph.from_edges``, which no library code used), and
``neighbors`` reads one row of the CSR (it was ``LabeledGraph.neighbors``,
which only tests used).  The scipy oracles are the calls the numpy CSR, component labeller and CCDF r²
replaced: ``scipy_csr`` (``coo_matrix(...).tocsr()``),
``scipy_component_labels`` (``csgraph.connected_components`` on the
survivor submatrix) and ``linregress_r2``.

The cascade oracles deliberately share no code with cascadelab.cascade:
they compare infected-neighbor fractions directly and rescan until
stable.  The exception is ``linear_security_threshold``: the scan with
one ``infection_set`` per grid value that the descending sweep of
``security_threshold`` replaced, kept verbatim.  The graph-file oracles
are the per-line writer and parser that the bulk
``serialize``/``deserialize`` replaced, kept verbatim.  So are
the structure oracles: the ``np.split`` build of ``communities``,
``row_filter_sub_adjacency`` (the intra-color and seed CSRs filtered
row by row out of the whole CSR, before the graph's CSR builder made
them from the edge list),
Dijkstra distances and community diameters, ``pull_bfs_levels`` (the
bit-parallel BFS before it pushed small frontiers), the per-community
``_classify`` loop of ``count_vulnerable`` (with its own copy of the
propagation loop restricted to a member mask, comparing each count with
an integer need from ``_need_counts``: the least k with k/deg >= phi,
the encoding the kernel used before it compared fractions), and
navigation over dict-of-lists adjacency, and the generators that called
numpy once per draw (public names carry a prefix naming the method).
``degree_profile`` is the per-node reference for
``degree_priority_summary``, moved here from the library.  So are
``_Replay`` (numpy's ``random``, ``integers`` and ``choice`` computed from
raw words), ``_draw_distinct`` and ``replay_gen_security``, the security
loop that drew through them one call per draw before ``gen_security`` made
its draws inline.  ``branchwise_config_error`` pins the order of
``ExperimentConfig.__post_init__``'s checks, one branch per rule, which
the library runs as the same straight code; it returns the first failing
check's message and keys, and writes out the phi-grid rules that the
library reads from ``_grid_error``.
The graph-file oracle names the line of a byte that is not UTF-8, as the
reader does.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy import stats
from scipy.sparse import csgraph

from cascadelab.cascade import (CommunityStrength, ThresholdAssignment,
                                infection_set, uniform_thresholds)
from cascadelab.experiment import (_EXPERIMENTS, _FIG1_ATTACK_SCALE, _MODELS,
                                   ConfigError, attack_size)
from cascadelab.generators import _edges, _initial_ends, attachment_probability
from cascadelab.graph import (FORMAT_MAGIC, FORMAT_VERSION, EdgeTag,
                              GraphFormatError, LabeledGraph,
                              _gather_neighbors, _node_ids,
                              largest_connected_component)
from cascadelab.seeding import rng_from
from cascadelab.structure import (Community, DistanceStats,
                                  NavigationResult, sample_lcc_pairs)


def graph_from_edges(n, edges, *, color=None, is_seed=None, birth_time=None):
    """Build a graph from an iterable of (u, v) or (u, v, tag) tuples.

    Metadata defaults: color 0 everywhere, no seeds, birth_time = id.
    """
    edges = list(edges)
    if edges and len(edges[0]) == 3:
        et = [int(e[2]) for e in edges]
    else:
        et = [int(EdgeTag.PLAIN)] * len(edges)
    return LabeledGraph(
        n,
        np.zeros(n, dtype=np.int64) if color is None else color,
        np.zeros(n, dtype=bool) if is_seed is None else is_seed,
        np.arange(n, dtype=np.int64) if birth_time is None else birth_time,
        np.asarray([e[0] for e in edges], dtype=np.int64),
        np.asarray([e[1] for e in edges], dtype=np.int64),
        np.asarray(et, dtype=np.uint8),
    )


def neighbors(g: LabeledGraph, v: int) -> np.ndarray:
    """Neighbor ids of v, ascending: row v of the CSR."""
    indptr, indices = g.csr()
    return indices[indptr[v]:indptr[v + 1]]


# ---- scipy: the CSR build, component labelling and r² that numpy replaced ---


def scipy_csr(g: LabeledGraph) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency matrix through scipy's COO-to-CSR path."""
    row = np.concatenate([g.edge_u, g.edge_v])
    col = np.concatenate([g.edge_v, g.edge_u])
    data = np.ones(row.shape[0], dtype=np.int8)
    a = sp.coo_matrix((data, (row, col)), shape=(g.n, g.n)).tocsr()
    a.sort_indices()
    return a


def scipy_component_labels(g: LabeledGraph, keep: np.ndarray) -> np.ndarray:
    """csgraph component labels of the kept nodes (in id order), on the
    submatrix of the kept rows and columns."""
    survivors = np.flatnonzero(keep)
    if survivors.size == 0:
        return survivors
    _, labels = csgraph.connected_components(
        scipy_csr(g)[survivors][:, survivors], directed=False)
    return labels


def linregress_r2(x, y) -> float:
    """r² of scipy's least-squares line through (x, y)."""
    return float(stats.linregress(x, y).rvalue ** 2)


def rescan_infection(g, s, theta) -> set[int]:
    """Keep rescanning every node until nothing changes."""
    infected = set(int(x) for x in s)
    deg = g.degrees
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in infected or deg[v] == 0:
                continue
            hit = sum(1 for w in neighbors(g, v) if int(w) in infected)
            if hit / deg[v] >= theta.phi[v]:
                infected.add(v)
                changed = True
    return infected


def async_infection(g, s, theta, rng: np.random.Generator) -> set[int]:
    """Activate one qualifying node at a time in random order."""
    infected = set(int(x) for x in s)
    deg = g.degrees
    while True:
        ready = []
        for v in range(g.n):
            if v in infected or deg[v] == 0:
                continue
            hit = sum(1 for w in neighbors(g, v) if int(w) in infected)
            if hit / deg[v] >= theta.phi[v]:
                ready.append(v)
        if not ready:
            return infected
        infected.add(int(rng.choice(ready)))


def async_sweep_infection(g, s, theta, rng: np.random.Generator) -> set[int]:
    """Asynchronous schedule: sweep nodes one at a time in a fresh random
    order each pass, applying infections immediately, until stable."""
    infected = set(int(x) for x in s)
    deg = g.degrees
    order = np.arange(g.n)
    changed = True
    while changed:
        changed = False
        rng.shuffle(order)
        for v in order:
            v = int(v)
            if v in infected or deg[v] == 0:
                continue
            hit = sum(1 for w in neighbors(g, v) if int(w) in infected)
            if hit / deg[v] >= theta.phi[v]:
                infected.add(v)
                changed = True
    return infected


def sync_round_growth(g, s, theta) -> list[int]:
    """Round-synchronous schedule: every node qualifying against the
    infected set at the start of a round joins at its end.  Returns the
    attack-set size followed by the size of each non-empty round."""
    infected = set(int(x) for x in s)
    deg = g.degrees
    growth = [len(infected)]
    while True:
        ready = set()
        for v in range(g.n):
            if v in infected or deg[v] == 0:
                continue
            hit = sum(1 for w in neighbors(g, v) if int(w) in infected)
            if hit / deg[v] >= theta.phi[v]:
                ready.add(v)
        if not ready:
            return growth
        infected |= ready
        growth.append(len(ready))


def random_small_graph(rng: np.random.Generator, index: int):
    """A small mixed-model graph for oracle comparisons (n <= 32)."""
    import cascadelab as cl

    model = ("er", "pa", "security")[index % 3]
    n = int(rng.integers(2, 33))
    d = int(rng.integers(1, 5))
    if model in ("pa", "security"):
        d = max(d, 2) if model == "security" else d
        n = max(n, d + 1)
    else:
        d = min(d, n - 1) if n > 1 else 1
    a = 1.5 if model == "security" else None
    return cl.generate(model, n, d, a, master_seed=index)


def random_attack(rng: np.random.Generator, n: int) -> list[int]:
    k = int(rng.integers(0, max(1, n // 4) + 1))
    return sorted(int(x) for x in rng.choice(n, size=k, replace=False))


# ---- security threshold: one cold cascade per grid value ----------------------


def linear_security_threshold(g: LabeledGraph, s, grid, epsilon: float):
    """Smallest phi in grid whose uniform-threshold cascade from s infects
    at most epsilon * n nodes; None when no grid value qualifies.

    grid must be sorted ascending with values in (0, 1]; 0 < epsilon < 1.
    """
    grid = [float(x) for x in grid]
    if not grid:
        raise ValueError("phi grid must not be empty")
    if any(not 0.0 < x <= 1.0 for x in grid):
        raise ValueError("phi grid values must lie in (0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("phi grid must be strictly ascending")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    attack = _node_ids(s, g.n, "attack set", as_set=True)
    budget = epsilon * g.n
    for phi in grid:
        outcome = infection_set(g, attack, uniform_thresholds(g, phi))
        if outcome.infected.shape[0] <= budget:
            return phi
    return None


# ---- graph file format: the per-line writer and parser ------------------------

_TAG_NAMES = {tag: tag.name for tag in EdgeTag}
_TAG_BY_NAME = {tag.name: tag for tag in EdgeTag}


def per_line_serialize(g: LabeledGraph) -> bytes:
    """Serialize to the canonical v1 text format (UTF-8 bytes, LF endings)."""
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION} {g.n} {g.m}"]
    seeds = g.is_seed.astype(np.int64)
    for i in range(g.n):
        lines.append(f"N {i} {g.color[i]} {seeds[i]} {g.birth_time[i]}")
    tag_names = [_TAG_NAMES[EdgeTag(int(t))] for t in g.edge_tag]
    eu, ev = g.edge_u, g.edge_v
    for j in range(g.m):
        lines.append(f"E {eu[j]} {ev[j]} {tag_names[j]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _fail(lineno: int, message: str):
    raise GraphFormatError(f"line {lineno}: {message}")


def per_line_deserialize(data: bytes) -> LabeledGraph:
    """Parse the canonical v1 format; errors name the offending line.  The
    header, the line count, then each line in file order is checked, and a
    line is decoded only when it is read."""
    raw = data.split(b"\n")
    if raw and raw[-1] == b"":
        raw.pop()
    if not raw:
        _fail(1, "empty file, expected header")

    def line(i):  # line i + 1 of the file, decoded where it is read
        try:
            return raw[i].decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(i + 1, f"not valid UTF-8: {exc}")

    head = line(0).split(" ")
    if len(head) != 4 or head[0] != FORMAT_MAGIC or head[1] != FORMAT_VERSION:
        _fail(1, f"malformed header {line(0)!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        _fail(1, f"malformed header counts {line(0)!r}")
    if n < 0 or m < 0:
        _fail(1, "negative node or edge count")
    if len(raw) != 1 + n + m:
        _fail(len(raw), f"expected {1 + n + m} lines for n={n}, m={m}, "
                        f"found {len(raw)}")

    color = np.empty(n, dtype=np.int64)
    is_seed = np.empty(n, dtype=bool)
    birth = np.empty(n, dtype=np.int64)
    for i in range(n):
        lineno = 2 + i
        parts = line(1 + i).split(" ")
        if len(parts) != 5 or parts[0] != "N":
            _fail(lineno, f"malformed node line {line(1 + i)!r}")
        try:
            nid, col, seed, bt = (int(parts[1]), int(parts[2]),
                                  int(parts[3]), int(parts[4]))
        except ValueError:
            _fail(lineno, f"non-integer field in node line {line(1 + i)!r}")
        if nid != i:
            _fail(lineno, f"node lines must be sorted by id; expected {i}, got {nid}")
        if seed not in (0, 1):
            _fail(lineno, "is_seed must be 0 or 1")
        if col < 0 or bt < 0:
            _fail(lineno, "color and birth_time must be non-negative")
        color[i], is_seed[i], birth[i] = col, bool(seed), bt

    eu = np.empty(m, dtype=np.int64)
    ev = np.empty(m, dtype=np.int64)
    et = np.empty(m, dtype=np.uint8)
    prev = (-1, -1)
    for j in range(m):
        lineno = 2 + n + j
        parts = line(1 + n + j).split(" ")
        if len(parts) != 4 or parts[0] != "E":
            _fail(lineno, f"malformed edge line {line(1 + n + j)!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            _fail(lineno, f"non-integer endpoint in {line(1 + n + j)!r}")
        tag = _TAG_BY_NAME.get(parts[3])
        if tag is None:
            _fail(lineno, f"unknown provenance {parts[3]!r}")
        if not (0 <= u < n) or not (0 <= v < n):
            _fail(lineno, f"dangling edge endpoint ({u}, {v}) with n={n}")
        if u >= v:
            _fail(lineno, f"edge endpoints must satisfy u < v, got ({u}, {v})")
        if (u, v) == prev:
            _fail(lineno, f"duplicate edge ({u}, {v})")
        if (u, v) < prev:
            _fail(lineno, f"edge lines not in canonical (u, v) order at ({u}, {v})")
        prev = (u, v)
        eu[j], ev[j], et[j] = u, v, tag
    return LabeledGraph(n, color, is_seed, birth, eu, ev, et)


# ---- degree priority: the per-node profile that degree_priority_summary
# computes for every node at once ---------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    """Neighbor color classes of one node, largest first.

    entries are (color, count) pairs sorted by count descending (ties by
    smaller color id); length is the number of distinct neighbor colors;
    first_degree/second_degree are the two largest counts (0 if absent).
    """

    node: int
    entries: tuple[tuple[int, int], ...]
    length: int
    first_degree: int
    second_degree: int


def degree_profile(g: LabeledGraph, v: int) -> DegreeProfile:
    """Color-class profile of v's neighborhood, by np.unique per node."""
    nbrs = neighbors(g, v)
    colors, counts = np.unique(g.color[nbrs], return_counts=True)
    order = np.lexsort((colors, -counts))
    entries = tuple((int(colors[i]), int(counts[i])) for i in order)
    return DegreeProfile(
        node=int(v),
        entries=entries,
        length=len(entries),
        first_degree=entries[0][1] if entries else 0,
        second_degree=entries[1][1] if len(entries) > 1 else 0,
    )


# ---- structure reports: the Dijkstra distances and diameters, the
# per-community classification loop and the dict-adjacency navigation
# that the bit-parallel BFS and the intra-color CSR views replaced ----------


def _bfs_distance_rows(g: LabeledGraph, sources: np.ndarray) -> np.ndarray:
    """BFS distances from the given sources to all nodes (chunked)."""
    out = np.empty((sources.shape[0], g.n), dtype=np.float64)
    a = scipy_csr(g)
    for lo in range(0, sources.shape[0], 64):
        chunk = sources[lo:lo + 64]
        out[lo:lo + chunk.shape[0]] = csgraph.dijkstra(
            a, directed=False, unweighted=True, indices=chunk)
    return out


def dijkstra_pair_distances(g: LabeledGraph, pair_u: np.ndarray,
                            pair_v: np.ndarray) -> np.ndarray:
    """BFS distance for each (u, v) pair; inf when unreachable."""
    sources, inverse = np.unique(pair_u, return_inverse=True)
    dist_rows = _bfs_distance_rows(g, sources)
    return dist_rows[inverse, pair_v]


def dijkstra_distance_stats(g: LabeledGraph, sample_pairs: int, seed: int = 0) -> DistanceStats:
    """Average distance over sampled pairs in the LCC plus a double-sweep
    diameter estimate.

    When the LCC has at most sample_pairs distinct pairs they are all
    used exactly; otherwise pairs come from :func:`sample_lcc_pairs`.
    Unreachable pairs cannot occur for pairs inside the LCC but are
    excluded and counted defensively.
    """
    pair_u, pair_v = sample_lcc_pairs(g, sample_pairs, seed)
    lcc = largest_connected_component(g)
    dists = dijkstra_pair_distances(g, pair_u, pair_v)
    reachable = np.isfinite(dists)
    if not reachable.any():
        raise ValueError("no reachable pairs sampled")

    # double-sweep: repeated BFS to the farthest node lower-bounds the diameter
    in_lcc = np.zeros(g.n, dtype=bool)
    in_lcc[lcc] = True
    start = int(lcc[np.argmax(g.degrees[lcc])])
    best = 0
    for _ in range(4):
        row = _bfs_distance_rows(g, np.asarray([start]))[0]
        row = np.where(in_lcc & np.isfinite(row), row, -np.inf)
        far = int(np.argmax(row))
        reach = int(row[far])
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


def dijkstra_community_diameters(g: LabeledGraph) -> dict[int, float]:
    """Exact BFS diameter of every induced community subgraph.

    Disconnected communities report math.inf.  Returned as a dict keyed
    by color.
    """
    a = scipy_csr(g)
    out: dict[int, float] = {}
    for com in split_communities(g):
        if com.size == 1:
            out[com.color] = 0.0
            continue
        sub = a[com.members][:, com.members]
        dist = csgraph.dijkstra(sub, directed=False, unweighted=True)
        worst = dist.max()
        out[com.color] = float("inf") if np.isinf(worst) else float(worst)
    return out


def pull_bfs_levels(indptr, indices, seen):
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


def _seed_subgraph(g: LabeledGraph) -> dict[int, list[int]]:
    """Adjacency over seed nodes using only seed-seed edges (cached)."""

    def build():
        adj: dict[int, list[int]] = {int(s): [] for s in np.flatnonzero(g.is_seed)}
        both = g.is_seed[g.edge_u] & g.is_seed[g.edge_v]
        for u, v in zip(g.edge_u[both].tolist(), g.edge_v[both].tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    return g.cached("seed-subgraph", build)


def _community_adjacency(g: LabeledGraph) -> dict[int, dict[int, list[int]]]:
    """Per-color adjacency restricted to same-color edges (cached)."""

    def build():
        adj: dict[int, dict[int, list[int]]] = {}
        for com in split_communities(g):
            adj[com.color] = {int(v): [] for v in com.members}
        same = g.color[g.edge_u] == g.color[g.edge_v]
        for u, v, c in zip(g.edge_u[same].tolist(), g.edge_v[same].tolist(),
                           g.color[g.edge_u[same]].tolist()):
            adj[c][u].append(v)
            adj[c][v].append(u)
        return adj

    return g.cached("community-adjacency", build)


def _bfs_path(adj, start: int, goal: int) -> tuple[list[int] | None, int]:
    """Shortest path in a dict adjacency; returns (path, nodes expanded)."""
    if start == goal:
        return [start], 1
    parent = {start: start}
    queue = deque([start])
    expanded = 0
    while queue:
        u = queue.popleft()
        expanded += 1
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                if w == goal:
                    path = [w]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1], expanded
                queue.append(w)
    return None, expanded


def _bidirectional_bfs(adj, start: int, goal: int) -> tuple[list[int] | None, int]:
    """Bidirectional BFS; returns (shortest path, nodes expanded)."""
    if start == goal:
        return [start], 1
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
            for w in adj[u]:
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


def dict_navigate(g: LabeledGraph, u: int, v: int, hop_budget: int) -> NavigationResult:
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
    com_adj = _community_adjacency(g)
    coms = {c.color: c for c in split_communities(g)}
    cu, cv = int(g.color[u]), int(g.color[v])
    visited = 0
    if cu == cv:
        path, expanded = _bfs_path(com_adj[cu], u, v)
        visited += expanded
        if path is None or len(path) - 1 > hop_budget:
            return NavigationResult(path=None, hops=-1, visited=visited)
        return NavigationResult(path=tuple(path), hops=len(path) - 1,
                                visited=visited)
    seed_u, seed_v = coms[cu].seed, coms[cv].seed
    up, expanded = _bfs_path(com_adj[cu], u, seed_u)
    visited += expanded
    if up is None:
        return NavigationResult(path=None, hops=-1, visited=visited)
    mid, expanded = _bidirectional_bfs(_seed_subgraph(g), seed_u, seed_v)
    visited += expanded
    if mid is None:
        return NavigationResult(path=None, hops=-1, visited=visited)
    down, expanded = _bfs_path(com_adj[cv], seed_v, v)
    visited += expanded
    if down is None:
        return NavigationResult(path=None, hops=-1, visited=visited)
    path = up + mid[1:] + down[1:]
    if len(path) - 1 > hop_budget:
        return NavigationResult(path=None, hops=-1, visited=visited)
    return NavigationResult(path=tuple(path), hops=len(path) - 1, visited=visited)


def row_filter_sub_adjacency(g: LabeledGraph, key: str, keep_edge):
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


def split_communities(g: LabeledGraph) -> list[Community]:
    """One community per color, partitioning the node set.

    Raises ValueError when some color has no seed, or more than one
    (baseline ER/PA graphs have no seeds at all, so they are rejected).
    """
    if g.n == 0:
        return []
    order = np.argsort(g.color, kind="stable")
    sorted_colors = g.color[order]
    boundaries = np.flatnonzero(np.diff(sorted_colors)) + 1
    groups = np.split(order, boundaries)
    out = []
    for group in groups:
        color = int(g.color[group[0]])
        seeds = group[g.is_seed[group]]
        if seeds.shape[0] != 1:
            raise ValueError(
                f"color {color} has {seeds.shape[0]} seeds, expected exactly 1")
        out.append(Community(color=color,
                             members=np.sort(group).astype(np.int64),
                             seed=int(seeds[0])))
    out.sort(key=lambda c: c.color)
    return out


def _need_counts(g: LabeledGraph, theta: ThresholdAssignment) -> np.ndarray:
    """Least k with k/deg >= phi under float comparison; deg+1 sentinel is
    never needed because phi <= 1 always admits k = deg.  Degree-0 nodes
    get 1, which their count (0) can never reach."""
    deg = g.degrees
    if theta.phi.shape[0] != g.n:
        raise ValueError("threshold assignment does not match graph size")
    phi = theta.phi
    k = np.ceil(phi * deg).astype(np.int64)
    k = np.maximum(k, 1)
    pos = deg > 0
    safe_deg = np.maximum(deg, 1)
    # ceil() can land one step off after float rounding; nudge both ways
    down = pos & (k > 1) & ((k - 1) / safe_deg >= phi)
    k[down] -= 1
    up = pos & (k / safe_deg < phi)
    k[up] += 1
    k[~pos] = 1
    return k


def _masked_propagate(indptr, indices, need, infected, cnt, frontier,
                      inside) -> list[int]:
    """Advance a cascade in place until no node qualifies.

    ``infected`` (bool) and ``cnt`` (infected-neighbor counts) are the
    caller's state; ``frontier`` holds the nodes infected since ``cnt``
    last counted them.  With ``inside`` (a bool mask) only those nodes
    receive counts and can become infected.  Returns the number of nodes
    newly infected in each round.
    """
    n = infected.shape[0]
    growth = []
    while frontier.size:
        nbrs = _gather_neighbors(indptr, indices, frontier)
        if inside is not None:
            nbrs = nbrs[inside[nbrs]]
        if nbrs.size == 0:
            break
        if nbrs.size >= n // 4:
            cnt += np.bincount(nbrs, minlength=n)
        else:
            np.add.at(cnt, nbrs, 1)
        hit = nbrs[(~infected[nbrs]) & (cnt[nbrs] >= need[nbrs])]
        if hit.size == 0:
            break
        frontier = np.unique(hit)
        infected[frontier] = True
        growth.append(int(frontier.size))
    return growth


def _classify(g: LabeledGraph, x: Community, theta: ThresholdAssignment,
              need: np.ndarray) -> CommunityStrength:
    """Localized cascade: every node outside X starts infected (and stays),
    members of X start healthy with their external-neighbor counts
    preloaded; propagate inside X only.  Equivalent to running
    infection_set(g, V \\ X, theta) and inspecting the seed."""
    indptr, indices = g.adjacency()
    member_mask = np.zeros(g.n, dtype=bool)
    member_mask[x.members] = True
    deg = g.degrees
    members = x.members
    nbrs = _gather_neighbors(indptr, indices, members)
    lens = indptr[members + 1] - indptr[members]
    owner = np.repeat(np.arange(members.shape[0]), lens)
    internal = np.bincount(owner[member_mask[nbrs]],
                           minlength=members.shape[0])
    cnt = np.zeros(g.n, dtype=np.int64)
    cnt[members] = deg[members] - internal  # external neighbors, all infected
    infected = np.zeros(g.n, dtype=bool)
    frontier = members[cnt[members] >= need[members]]
    infected[frontier] = True
    _masked_propagate(indptr, indices, need, infected, cnt, frontier,
                      inside=member_mask)
    return (CommunityStrength.VULNERABLE if infected[x.seed]
            else CommunityStrength.STRONG)


def classify_loop_count_vulnerable(g: LabeledGraph, theta: ThresholdAssignment) -> int:
    """Number of vulnerable communities under the given thresholds."""
    need = _need_counts(g, theta)
    return sum(
        1 for x in split_communities(g)
        if _classify(g, x, theta, need) is CommunityStrength.VULNERABLE
    )


# ---- generators: the per-draw loops that the replayed stream replaced -------


def _complete_edges(k: int, tag: EdgeTag):
    return [(i, j, int(tag)) for i in range(k) for j in range(i + 1, k)]


def loop_gen_er(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """G(n, p) with p = d/(n-1), so the expected average degree is d.

    Single color 0, no seeds, edges tagged PLAIN.  Raises ValueError when
    d >= n (p would exceed 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 1 and d >= n:
        raise ValueError(f"d={d} with n={n} gives edge probability above 1")
    if n == 1:
        return graph_from_edges(1, [])
    p = d / (n - 1)
    if p >= 1.0:
        return graph_from_edges(n, _complete_edges(n, EdgeTag.PLAIN))
    rng = rng_from(master_seed, "er", n, d)
    eu = array("q")
    ev = array("q")
    if p > 0.0:
        # Batagelj–Brandes geometric skipping over the (v, w) pair space
        log1p = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            r = rng.random()
            w += 1 + int(math.log(1.0 - r) / log1p)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                eu.append(w)
                ev.append(v)
    m = len(eu)
    return LabeledGraph(
        n,
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=bool),
        np.arange(n, dtype=np.int64),
        np.frombuffer(eu, dtype=np.int64) if m else np.empty(0, np.int64),
        np.frombuffer(ev, dtype=np.int64) if m else np.empty(0, np.int64),
        np.full(m, int(EdgeTag.PLAIN), dtype=np.uint8),
    )


def _sample_distinct(rng, endpoints, k: int, forbidden=()) -> list[int]:
    """Draw k distinct nodes uniformly from an attachment endpoint list,
    re-sampling collisions (and anything in `forbidden`)."""
    length = len(endpoints)
    chosen: list[int] = []
    seen = set(forbidden)
    # batch the common case, then top up one draw at a time
    for idx in rng.integers(0, length, size=k):
        cand = endpoints[idx]
        if cand not in seen:
            seen.add(cand)
            chosen.append(cand)
    while len(chosen) < k:
        cand = endpoints[int(rng.integers(0, length))]
        if cand not in seen:
            seen.add(cand)
            chosen.append(cand)
    return chosen


def loop_gen_pa(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """Preferential attachment starting from K_{d+1}.

    Each new node attaches d edges to distinct existing nodes sampled with
    probability proportional to their degree in the previous graph.  Single
    color 0, no seeds, edges tagged PLAIN.
    """
    if n < d + 1:
        raise ValueError("n must be at least d + 1")
    rng = rng_from(master_seed, "pa", n, d)
    plain = int(EdgeTag.PLAIN)
    eu = array("q")
    ev = array("q")
    endpoints = array("q")

    def add_edge(u: int, v: int) -> None:
        eu.append(u)
        ev.append(v)
        endpoints.append(u)
        endpoints.append(v)

    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            add_edge(i, j)
    for t in range(d + 1, n):
        targets = _sample_distinct(rng, endpoints, d)
        for u in targets:
            add_edge(u, t)
    m = len(eu)
    return LabeledGraph(
        n,
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=bool),
        np.arange(n, dtype=np.int64),
        np.frombuffer(eu, dtype=np.int64),
        np.frombuffer(ev, dtype=np.int64),
        np.full(m, plain, dtype=np.uint8),
    )


def loop_gen_security(n: int, d: int, a: float, master_seed: int = 0) -> LabeledGraph:
    """The security model: homophyly + randomness + preferential attachment.

    Construction: start from K_{d+1} (the smallest simple d-regular graph),
    every initial node a seed with its own color.  At each step i >= d+1,
    with probability p_i = min(1, 1/(ln i)^a) the new node founds a new
    color as a seed: it gains one degree-proportional edge over all nodes
    (PA_GLOBAL) and d-1 uniform links to distinct existing seeds
    (SEED_LINK; all existing seeds when fewer than d-1 are eligible).
    Otherwise it adopts a uniformly random old color and gains
    min(d, class size) edges to distinct same-color nodes sampled
    proportionally to their global degree (HOMOPHYLY).

    Returns a graph whose seeds/colors/birth times encode the construction;
    node id equals creation step.
    """
    if d < 2:
        raise ValueError("security model requires d >= 2")
    if n < d + 1:
        raise ValueError("n must be at least d + 1")
    if not a > 1:
        raise ValueError("homophyly exponent a must exceed 1")
    rng = rng_from(master_seed, "security", n, d, float(a).hex())

    color = np.empty(n, dtype=np.int64)
    is_seed = np.zeros(n, dtype=bool)
    eu = array("q")
    ev = array("q")
    et = array("b")

    global_ends = array("q")          # each node once per incident edge
    class_ends: list[list[int]] = []  # same, restricted to one color class
    members: list[list[int]] = []     # nodes of each color, in birth order
    seeds: list[int] = []             # seed ids, in birth order

    def add_edge(u: int, v: int, tag: int) -> None:
        eu.append(u)
        ev.append(v)
        et.append(tag)
        global_ends.append(u)
        global_ends.append(v)
        class_ends[color[u]].append(u)
        class_ends[color[v]].append(v)

    # initial graph: K_{d+1}, all seeds, distinct colors
    for i in range(d + 1):
        color[i] = i
        is_seed[i] = True
        seeds.append(i)
        members.append([i])
        class_ends.append([])
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            add_edge(i, j, int(EdgeTag.INITIAL))

    for i in range(d + 1, n):
        if rng.random() < attachment_probability(i, a):
            # new seed with a fresh color
            c = len(members)
            color[i] = c
            is_seed[i] = True
            members.append([i])
            class_ends.append([])
            pa_target = global_ends[int(rng.integers(0, len(global_ends)))]
            eligible = seeds if not is_seed[pa_target] else \
                [s for s in seeds if s != pa_target]
            if len(eligible) <= d - 1:
                links = list(eligible)
            else:
                picks = rng.choice(len(eligible), size=d - 1, replace=False)
                links = [eligible[j] for j in picks]
            add_edge(i, pa_target, int(EdgeTag.PA_GLOBAL))
            for s in links:
                add_edge(i, s, int(EdgeTag.SEED_LINK))
            seeds.append(i)
        else:
            c = int(rng.integers(0, len(members)))
            group = members[c]
            color[i] = c
            if len(group) <= d:
                targets = list(group)
            else:
                targets = _sample_distinct(rng, class_ends[c], d)
            for u in targets:
                add_edge(i, u, int(EdgeTag.HOMOPHYLY))
            group.append(i)
    return LabeledGraph(
        n,
        color,
        is_seed,
        np.arange(n, dtype=np.int64),
        np.frombuffer(eu, dtype=np.int64),
        np.frombuffer(ev, dtype=np.int64),
        np.frombuffer(et, dtype=np.int8).astype(np.uint8),
    )


# ---- the replayed stream that gen_security drew through ----------------------

_MASK32 = (1 << 32) - 1
_WORDS_PER_FETCH = 1 << 14


def _raw_words(bit_generator) -> Iterator[int]:
    while True:
        yield from bit_generator.random_raw(_WORDS_PER_FETCH).tolist()


class _Replay:
    """The draws of numpy ``Generator(PCG64)`` ``rng``, replayed from its raw
    64-bit words, value for value, provided ``rng`` draws nothing itself:

    * ``random()`` is ``(word >> 11) * 2**-53``;
    * ``integers(0, high)``, for high up to 2**32, draws nothing for
      ``high == 1`` and otherwise runs Lemire's multiply-and-reject on
      32-bit halves.  A split word gives its low half first; the high half
      waits for the next 32-bit draw, while ``random()`` passes it by;
    * ``choice(pop, size, replace=False)`` is Floyd's algorithm, then a
      shuffle of the picks; for pop > 10000 and size > pop // 50 it is a
      shuffle of the tail of ``range(pop)`` instead.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, rng: np.random.Generator):
        self._next64 = _raw_words(rng.bit_generator).__next__
        self._half = -1  # pending high half of a split word, or -1

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / (1 << 53))

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, high: int) -> int:
        """Like ``rng.integers(0, high)`` for high <= 2**32."""
        if high == 1:
            return 0
        m = self._next32() * high  # at 2**32 this takes one half as it is
        if m & _MASK32 < high:
            threshold = (1 << 32) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def choice(self, pop: int, size: int) -> list[int]:
        """Like ``rng.choice(pop, size, replace=False).tolist()``."""
        if pop > 10000 and size > pop // 50:
            moved: dict[int, int] = {}
            for i in range(pop - 1, max(pop - size, 1) - 1, -1):
                j = self.integers(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(k, k) for k in range(pop - size, pop)]
        picks: list[int] = []
        seen: set[int] = set()
        for j in range(pop - size, pop):
            val = self.integers(j + 1)
            if val in seen:
                val = j
            seen.add(val)
            picks.append(val)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def _draw_distinct(integers, pool: array, k: int) -> list[int]:
    """k distinct entries of pool: uniform positions, repeats drawn again."""
    size, picked = len(pool), []
    while len(picked) < k:
        u = pool[integers(size)]
        if u not in picked:
            picked.append(u)
    return picked


def replay_gen_security(n: int, d: int, a: float, master_seed: int = 0,
                        draw: _Replay | None = None) -> LabeledGraph:
    """``gen_security`` as it drew through ``_Replay``, one call per draw, from
    ``draw`` if given (else the model's own stream)."""
    if draw is None:
        draw = _Replay(rng_from(master_seed, "security", n, d, float(a).hex()))
    random, integers = draw.random, draw.integers
    pa_global, seed_link, homophyly = map(int, (EdgeTag.PA_GLOBAL, EdgeTag.SEED_LINK,
                                                EdgeTag.HOMOPHYLY))
    color = array("q", range(d + 1))
    seeds = array("q", range(d + 1))
    members = [array("q", (i,)) for i in range(d + 1)]  # by color, birth order
    ends = _initial_ends(d)
    tags = array("B", [int(EdgeTag.INITIAL)]) * (d * (d + 1) // 2)
    class_ends = [array("q", (i,)) * d for i in range(d + 1)]

    for i in range(d + 1, n):
        if random() < attachment_probability(i, a):
            # new seed with a fresh color; exclude the PA target if a seed
            target = ends[integers(len(ends))]
            rank = color[target] if seeds[color[target]] == target else len(seeds)
            eligible = len(seeds) - (rank < len(seeds))
            links = [seeds[j + (j >= rank)] for j in draw.choice(eligible, d - 1)]
            for k, s in enumerate([target, *links]):
                class_ends[color[s]].append(s)
                ends.append(i)
                ends.append(s)
                tags.append(seed_link if k else pa_global)
            color.append(len(seeds))
            members.append(array("q", (i,)))
            class_ends.append(array("q", (i,)) * d)
            seeds.append(i)
        else:
            c = integers(len(members))
            group, pool = members[c], class_ends[c]
            color.append(c)
            targets = group if len(group) <= d else _draw_distinct(integers, pool, d)
            for u in targets:
                pool.append(i)
                pool.append(u)
                ends.append(i)
                ends.append(u)
                tags.append(homophyly)
            group.append(i)
    is_seed = np.zeros(n, dtype=bool)
    is_seed[np.frombuffer(seeds, dtype=np.int64)] = True
    return LabeledGraph(n, np.array(color, dtype=np.int64), is_seed,
                        np.arange(n, dtype=np.int64), *_edges(ends),
                        np.array(tags, dtype=np.uint8))


# ---- experiment config ----------------------------------------------------------


def branchwise_config_error(**fields):
    """(message, keys) of the first check that the config of these fields
    (every field given) fails, one branch per rule; None when all pass."""
    self = SimpleNamespace(**fields)
    try:
        for key in ("models", "n_list", "phi_grid"):  # given as lists, hashed as tuples
            value = getattr(self, key)
            if isinstance(value, str) or not np.iterable(value):
                raise ConfigError(f"{key} takes a list, got {value!r}", key)
            setattr(self, key, tuple(value))
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.models:
            raise ConfigError("models must not be empty", "models")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("models must not repeat", "models")
        allowed = ("er", "pa") if self.experiment == "fig1" else _MODELS
        for model in self.models:
            if model not in allowed:
                raise ConfigError(
                    f"model {model!r} not valid for {self.experiment} "
                    f"(allowed: {', '.join(allowed)})", "models", "experiment")
        if not self.n_list:
            raise ConfigError("n_list must not be empty", "n_list")
        # integers as the generators take them: any value with __index__
        for key in ("n_list", "d", "trials", "graphs_per_cell", "master_seed"):
            value = getattr(self, key)
            for x in value if key == "n_list" else (value,):
                if not hasattr(x, "__index__"):
                    raise ConfigError(f"{key} takes integers, got {x!r}", key)
        for key in ("a", "epsilon", "phi_grid"):
            value = getattr(self, key)
            for x in value if key == "phi_grid" else (value,):
                if not isinstance(x, numbers.Real):
                    raise ConfigError(f"{key} takes numbers, got {x!r}", key)
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly ascending", "n_list")
        if self.d < 1:
            raise ConfigError("d must be at least 1", "d")
        if "security" in self.models:
            if self.d < 2:
                raise ConfigError("the security model requires d >= 2",
                                  "models", "d")
            if not self.a > 1:
                raise ConfigError("homophyly exponent a must exceed 1",
                                  "models", "a")
        if any(n < self.d + 1 for n in self.n_list):
            raise ConfigError("every n must be at least d + 1", "n_list", "d")
        if self.experiment == "fig1":
            for n in self.n_list:
                k_max = attack_size(n, _FIG1_ATTACK_SCALE)
                if k_max > n:
                    raise ConfigError(f"fig1 attacks up to ceil(5 ln n) = "
                                      f"{k_max} nodes, more than n={n}",
                                      "n_list", "experiment")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1", "trials")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must be in (0, 1)", "epsilon")
        if not self.phi_grid:
            raise ConfigError("phi_grid must not be empty", "phi_grid")
        if any(not 0.0 < p <= 1.0 for p in self.phi_grid):
            raise ConfigError("phi_grid values must lie in (0, 1]", "phi_grid")
        if any(b <= a for a, b in zip(self.phi_grid, self.phi_grid[1:])):
            raise ConfigError("phi_grid must be strictly ascending", "phi_grid")
        if self.attack not in ("top", "random"):
            raise ConfigError("attack must be 'top' or 'random'", "attack")
        if self.attack != "top" and self.experiment != "fig2":
            raise ConfigError(f"{self.experiment} always attacks top-degree "
                              "nodes", "attack", "experiment")
        if self.graphs_per_cell < 1:
            raise ConfigError("graphs_per_cell must be at least 1",
                              "graphs_per_cell")
    except ConfigError as exc:
        return str(exc), exc.keys
    return None
