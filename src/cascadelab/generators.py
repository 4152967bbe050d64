"""Network generators: Erdős–Rényi, preferential attachment, and the
homophyly/randomness/preferential-attachment security model.

All three generators are deterministic functions of their parameters plus a
64-bit master seed (sub-streams derived via :mod:`cascadelab.seeding`), and
all enforce the simple-graph policy: collisions (duplicate edge targets)
are re-sampled, never kept.

Degree-proportional sampling uses attachment endpoint lists: a list that
contains each node once per incident edge, so uniform draws from the list
are exactly degree-proportional.  The security model keeps one such list
per color class (a node's multiplicity in its class list equals its global
degree) plus a global list for the preferential-attachment step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import EdgeTag, LabeledGraph
from .seeding import rng_from


@dataclass(frozen=True)
class GenParams:
    """Validated generation parameters for one network.

    n is the target node count, d the edges added per new node (expected
    average degree for ER), a the homophyly exponent (security model only),
    master_seed the 64-bit seed all randomness derives from.
    """

    n: int
    d: int
    a: float | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.n < self.d + 1:
            raise ValueError("n must be at least d + 1")
        if self.a is not None and not self.a > 1:
            raise ValueError("homophyly exponent a must exceed 1")


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


def _complete_edges(k: int, tag: EdgeTag):
    return [(i, j, int(tag)) for i in range(k) for j in range(i + 1, k)]


def gen_er(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """G(n, p) with p = d/(n-1), so the expected average degree is d.

    Single color 0, no seeds, edges tagged PLAIN.  Raises ValueError when
    d >= n (p would exceed 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 1 and d >= n:
        raise ValueError(f"d={d} with n={n} gives edge probability above 1")
    if n == 1:
        return LabeledGraph.from_edges(1, [])
    p = d / (n - 1)
    if p >= 1.0:
        return LabeledGraph.from_edges(n, _complete_edges(n, EdgeTag.PLAIN))
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


def gen_pa(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
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


def gen_security(n: int, d: int, a: float, master_seed: int = 0) -> LabeledGraph:
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
