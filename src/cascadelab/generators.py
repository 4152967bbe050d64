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
as their edge list, with no second copy, and the security model keeps one
more buffer per color class, holding the same endpoints restricted to the
class (a node's multiplicity there equals its global degree).  The security
model draws from :class:`cascadelab.seeding._Replay`, which gives exactly
numpy's values without a numpy call per draw; ER draws its Batagelj–Brandes
skips in chunks.

PA runs blocks of steps at once (Batagelj & Brandes, PRE 71, 036113, 2005)
with numpy's values: each draw of step t is a 32-bit Lemire draw below its
d(2t - d - 1) endpoints (2m <= 2**32), so PA's whole stream is one flat
array of 32-bit halves, each raw word's low half first.  A block keeps the
steps before the first with a rejected draw or a repeated target; that one
reads the array one half at a time.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .graph import EdgeTag, LabeledGraph
from .seeding import _MASK32, _WORDS_PER_FETCH, _Replay, rng_from

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
    color 0, no seeds, edges tagged PLAIN.  Blocks of steps give the stepwise draws (module notes).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if n < d + 1:
        raise ValueError("n must be at least d + 1")
    if d * (2 * n - d - 1) > 1 << 32:
        raise ValueError(f"gen_pa needs 2m <= 2**32; n={n}, d={d} gives {d * (2 * n - d - 1)}")
    bits = rng_from(master_seed, "pa", n, d).bit_generator
    ends = np.empty(d * (2 * n - d - 1), dtype=np.int64)
    ends[:d * (d + 1)] = _initial_ends(d)
    h, at = np.empty(0, dtype=np.uint32), 0  # the 32-bit draws fetched, the next one
    t, size = d + 1, 64
    while t < n:
        b = min(size, n - t)
        if at + b * d > len(h):
            h, at = _halves(bits, h[at:], b * d), 0
        t += (done := _pa_block(h[at:at + b * d], ends, t, d, b))
        at += done * d
        size = 2 * size if done == b else max(1, size // 2)
        if done < b:  # step t redraws: Lemire's test, then repeats dropped
            start, picked = d * (2 * t - d - 1), []
            threshold = (1 << 32) % start
            while len(picked) < d:
                if at == len(h):
                    h, at = _halves(bits, h[at:], 1), 0
                m, at = int(h[at]) * start, at + 1
                if m & _MASK32 >= threshold and (u := int(ends[m >> 32])) not in picked:
                    picked.append(u)
            ends[start:start + 2 * d:2] = picked  # _pa_block wrote its new node
            t += 1
    return _plain_graph(n, *_edges(ends))


def _halves(bits: np.random.BitGenerator, rest: np.ndarray, k: int) -> np.ndarray:
    """rest, then the next 32-bit draws of ``bits``, at least k in all: each
    raw word's low half, then its high half, on any byte order."""
    words = bits.random_raw(max(_WORDS_PER_FETCH, (k - len(rest) + 1) // 2))
    return np.concatenate([rest, words.astype("<u8").view("<u4")])


def _pa_block(h: np.ndarray, ends: np.ndarray, t: int, d: int, b: int) -> int:
    """Write b PA steps from t to ``ends`` from their b·d halves h; return how
    many precede the first that redraws, whose new node is written too."""
    start, stop = d * (2 * t - d - 1), d * (2 * (t + b) - d - 1)  # endpoints before t, t+b
    high = np.arange(start, stop, 2 * d, dtype=np.uint64).repeat(d)
    rejected = ((h * high & _MASK32) < (1 << 32) % high).reshape(b, d).any(axis=1)
    pos = (h * high >> 32).astype(np.int64)
    # past start, odd slots hold new nodes and even ones earlier draws: re-read to a fixed point
    ends[start + 1:stop:2] = np.arange(t, t + b).repeat(d)
    value, last = ends[pos], None
    while not np.array_equal(value, last):
        ends[start:stop:2] = last = value
        value = ends[pos]
    bad = rejected | (np.diff(np.sort(value.reshape(b, d))) == 0).any(axis=1)
    return int(bad.argmax()) if bad.any() else b


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
    if d * (2 * n - d - 1) > 1 << 32:  # each step adds at most d edges
        raise ValueError(f"gen_security needs 2m <= 2**32; n={n}, d={d} gives "
                         f"{d * (2 * n - d - 1)}")
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
