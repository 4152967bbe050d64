"""Network generators: Erdős–Rényi, preferential attachment, and the
homophyly/randomness/preferential-attachment security model.

All three generators are deterministic functions of their parameters plus a
64-bit master seed (sub-streams derived via :mod:`cascadelab.seeding`), and
all enforce the simple-graph policy: collisions (duplicate edge targets)
are re-sampled, never kept.

Degree-proportional sampling draws a uniform endpoint: each edge adds its
two endpoints, u then v, to an endpoint buffer, so global endpoint k is
endpoint ``k & 1`` of edge ``k >> 1`` in creation order and a node appears
once per incident edge.  The PA and security generators keep that buffer
as their edge list (``array('q')``, with no second copy), and the security
model keeps one more buffer per color class, holding the same endpoints
restricted to the class (a node's multiplicity there equals its global
degree).  Their draws come from :class:`cascadelab.seeding._Replay`, which
gives exactly numpy's values without a numpy call per draw; ER draws its
Batagelj–Brandes skips in chunks.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .graph import EdgeTag, LabeledGraph
from .seeding import _Replay, rng_from

_ER_CHUNK = 1 << 14  # skips per draw; larger chunks raised peak RSS, not speed


def attachment_probability(i: int, a: float) -> float:
    """p_i = min(1, 1 / (ln i)^a): the probability that the node created at
    step i founds a new color.  Natural log; defined as 1 while ln i <= 1."""
    li = math.log(i)
    if li <= 1.0:
        return 1.0
    return min(1.0, 1.0 / li ** a)


def expected_seed_count(n: int, d: int, a: float) -> float:
    """Direct summation of (d+1) + sum_{i=d+1}^{n-1} p_i."""
    i = np.arange(d + 1, n, dtype=np.float64)
    with np.errstate(divide="ignore"):
        p = 1.0 / np.log(i) ** a
    p = np.minimum(p, 1.0)
    p[np.log(i) <= 1.0] = 1.0
    return float(d + 1 + p.sum())


def _initial_ends(d: int) -> array:
    """The endpoint buffer of K_{d+1}: edges (i, j), i < j, in row order."""
    return array("q", (x for i in range(d + 1) for j in range(i + 1, d + 1)
                       for x in (i, j)))


def _edges(ends: array) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) columns of an endpoint buffer."""
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _draw_distinct(integers, pool: array, k: int) -> list[int]:
    """k distinct entries of pool: uniform positions, repeats drawn again."""
    size, picked = len(pool), []
    while len(picked) < k:
        u = pool[integers(size)]
        if u not in picked:
            picked.append(u)
    return picked


def _plain_graph(n: int, eu: np.ndarray, ev: np.ndarray) -> LabeledGraph:
    """Single color 0, no seeds, every edge PLAIN."""
    return LabeledGraph(n, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool),
                        np.arange(n, dtype=np.int64), eu, ev,
                        np.full(len(eu), int(EdgeTag.PLAIN), dtype=np.uint8))


def gen_er(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """G(n, p) with p = d/(n-1), so the expected average degree is d.

    Single color 0, no seeds, edges tagged PLAIN.  Raises ValueError when
    d >= n (p would exceed 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 1 and d >= n:
        raise ValueError(f"d={d} with n={n} gives edge probability above 1")
    p = d / (n - 1) if n > 1 else 1.0
    if p >= 1.0:
        return _plain_graph(n, *_edges(_initial_ends(n - 1)))
    rng = rng_from(master_seed, "er", n, d)
    # Batagelj–Brandes geometric skipping over the pairs (w, v), w < v, in
    # the order of their triangular index t = v(v-1)/2 + w
    pairs = n * (n - 1) // 2
    eu, ev = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    if p > 0.0:
        log1p = math.log(1.0 - p)
        # about p * pairs skips reach the last pair; 10% + 64 over that
        # is several standard deviations, so a small graph draws one chunk
        chunk = min(_ER_CHUNK, 64 + int(1.1 * p * pairs))
        t = -1
        while t < pairs:
            gaps = np.array(list(map(math.log, (1.0 - rng.random(chunk)).tolist())))
            ts = t + np.cumsum((gaps / log1p).astype(np.int64) + 1)
            t = int(ts[-1])
            w, v = _triangular_pairs(ts[:np.searchsorted(ts, pairs)])
            eu.append(w)
            ev.append(v)
    return _plain_graph(n, np.concatenate(eu), np.concatenate(ev))


def _triangular_pairs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (w, v), 0 <= w < v, with t = v(v-1)/2 + w.  The float
    square root can be one off once v passes about 1e8; integers fix it."""
    v = ((1.0 + np.sqrt(8.0 * t + 1.0)) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > t
    v += v * (v + 1) // 2 <= t
    return t - v * (v - 1) // 2, v


def gen_pa(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """Preferential attachment starting from K_{d+1}.

    Each new node attaches d edges to distinct existing nodes sampled with
    probability proportional to their degree in the previous graph.  Single
    color 0, no seeds, edges tagged PLAIN.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if n < d + 1:
        raise ValueError("n must be at least d + 1")
    integers = _Replay(rng_from(master_seed, "pa", n, d)).integers
    ends = _initial_ends(d)
    for t in range(d + 1, n):
        for u in _draw_distinct(integers, ends, d):
            ends.append(u)
            ends.append(t)
    return _plain_graph(n, *_edges(ends))


def gen_security(n: int, d: int, a: float, master_seed: int = 0) -> LabeledGraph:
    """The security model: homophyly + randomness + preferential attachment.

    Construction: start from K_{d+1} (the smallest simple d-regular graph),
    every initial node a seed with its own color.  At each step i >= d+1,
    with probability p_i = min(1, 1/(ln i)^a) the new node founds a new
    color as a seed: it gains one degree-proportional edge over all nodes
    (PA_GLOBAL) and d-1 uniform links to distinct existing seeds other
    than that target (SEED_LINK).
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
    draw = _Replay(rng_from(master_seed, "security", n, d, float(a).hex()))
    random, integers = draw.random, draw.integers
    pa_global, seed_link, homophyly = map(int, (EdgeTag.PA_GLOBAL, EdgeTag.SEED_LINK,
                                                EdgeTag.HOMOPHYLY))

    # initial graph: K_{d+1}, all seeds, distinct colors.  Color c is founded
    # by seeds[c], so a seed's rank among the seeds is its color.
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
            # K_{d+1} gives d+1 seeds, so at least d are eligible
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


_GENERATORS = {"er": gen_er, "pa": gen_pa, "security": gen_security}


def generate(model: str, n: int, d: int, a: float | None = None,
             master_seed: int = 0) -> LabeledGraph:
    """Dispatch by model name: er, pa, or security."""
    if model not in _GENERATORS:
        raise ValueError(f"unknown model {model!r}; expected er, pa or security")
    if model == "security":
        if a is None:
            raise ValueError("security model requires the homophyly exponent a")
        return gen_security(n, d, a, master_seed)
    return _GENERATORS[model](n, d, master_seed)
