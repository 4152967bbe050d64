"""Network generators: Erdős–Rényi, preferential attachment, and the
homophyly/randomness/preferential-attachment security model.

All three generators are deterministic functions of their parameters plus a
64-bit master seed (sub-streams derived via :mod:`cascadelab.seeding`), and
all enforce the simple-graph policy: collisions (duplicate edge targets)
are re-sampled, never kept.

Degree-proportional sampling draws a uniform endpoint: each edge adds its
two endpoints, u then v, to an endpoint buffer, so global endpoint k is
endpoint ``k & 1`` of edge ``k >> 1`` in creation order and a node appears
once per incident edge.  The security model keeps one more buffer per color
class, holding the same endpoints restricted to the class (a node's
multiplicity there equals its global degree).  ER draws its Batagelj–Brandes
skips in chunks.  Each generator hands its edges over as one int64 key
array ``u * n + v``, sorted in place and decoded into the (u, v) columns,
so no second copy of the columns is made and the graph needs no argsort.

The security model computes numpy's values inline from raw 64-bit words
fetched in bulk.  A coin is ``random()``, a whole word: ``(word >> 11) *
2**-53``.  Every other draw is ``integers(0, high)``, Lemire's method on a
32-bit half: a word gives its low half first, and its high half waits for the
next 32-bit draw while coins pass it by.  One site makes them all; for
``choice`` it draws below ``_choice_highs``, and ``_choice`` makes the picks.

PA runs blocks of steps at once (Batagelj & Brandes, PRE 71, 036113, 2005)
with numpy's values: each draw of step t is a 32-bit Lemire draw below its
d(2t - d - 1) endpoints (2m <= 2**32), so PA's whole stream is one flat
array of 32-bit halves, each raw word's low half first.  A block keeps the
steps before the first with a rejected draw or a repeated target; that one
reads the array one half at a time, as every step does while redraws keep
the block size below ``_PA_MIN_BLOCK``.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .graph import EdgeTag, LabeledGraph
from .seeding import rng_from

_ER_CHUNK = 1 << 14  # skips per draw; larger chunks raised peak RSS, not speed
_PA_MIN_BLOCK = 4  # below it, a block's numpy calls cost more than its steps
_WORDS_PER_FETCH = 1 << 14  # raw words per random_raw call
_MASK32 = (1 << 32) - 1


def attachment_probability(i: int, a: float) -> float:
    """p_i = min(1, 1 / (ln i)^a): the probability that the node created at
    step i founds a new color.  Natural log; defined as 1 while ln i <= 1."""
    li = math.log(i)
    if li <= 1.0:
        return 1.0
    return min(1.0, 1.0 / li ** a)


def expected_seed_count(n: int, d: int, a: float) -> float:
    """Direct summation of (d+1) + sum_{i=d+1}^{n-1} p_i."""
    ln_i = np.log(np.arange(d + 1, n, dtype=np.float64))
    return float(d + 1 + np.minimum(1.0, 1.0 / np.maximum(ln_i, 1.0) ** a).sum())


def _initial_ends(d: int) -> array:
    """The endpoint buffer of K_{d+1}: edges (i, j), i < j, in row order."""
    return array("q", (x for i in range(d + 1) for j in range(i + 1, d + 1)
                       for x in (i, j)))


def _edges(ends: array) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) columns of an endpoint buffer."""
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least ``least``; the ValueError names it."""
    if not hasattr(value, "__index__") or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")
    return int(value)


def _decode(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) columns of the keys u * n + v; u reuses key's memory."""
    v = key % n
    return np.floor_divide(key, n, out=key), v


def _plain_graph(n: int, key: np.ndarray) -> LabeledGraph:
    """Single color 0, no seeds, every edge PLAIN: the keys u * n + v, u < v, sorted here."""
    key.sort()
    return LabeledGraph(n, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool),
                        np.arange(n, dtype=np.int64), *_decode(key, n),
                        np.full(len(key), int(EdgeTag.PLAIN), dtype=np.uint8))


def gen_er(n: int, d: int, master_seed: int = 0) -> LabeledGraph:
    """G(n, p) with p = d/(n-1), so the expected average degree is d.

    Single color 0, no seeds, edges tagged PLAIN.  Raises ValueError when
    d >= n (p would exceed 1).
    """
    n, d = _integer("n", n, 1), _integer("d", d, 0)
    if n > 1 and d >= n:
        raise ValueError(f"d={d} with n={n} gives edge probability above 1")
    p = d / (n - 1) if n > 1 else 1.0
    rng = rng_from(master_seed, "er", n, d)
    # Batagelj–Brandes geometric skipping over the pairs (w, v), w < v, in
    # the order of their triangular index t = v(v-1)/2 + w; at p = 1 each skip is 1
    pairs = n * (n - 1) // 2
    keys = [np.empty(0, np.int64)]
    if p > 0.0:
        log1p = math.log(1.0 - p) if p < 1.0 else -math.inf
        # about p * pairs skips reach the last pair; 10% + 64 over that
        # is several standard deviations, so a small graph draws one chunk
        chunk = min(_ER_CHUNK, 64 + int(1.1 * p * pairs))
        t = -1
        while t < pairs:
            gaps = np.array(list(map(math.log, (1.0 - rng.random(chunk)).tolist())))
            ts = t + np.cumsum((gaps / log1p).astype(np.int64) + 1)
            t = int(ts[-1])
            w, v = _triangular_pairs(ts[:np.searchsorted(ts, pairs)])
            keys.append(w * n + v)
    keys = np.concatenate(keys)  # the chunks are freed before the sort
    return _plain_graph(n, keys)


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
    d = _integer("d", d, 1)
    n = _integer("n", n, d + 1)
    if d * (2 * n - d - 1) > 1 << 32:
        raise ValueError(f"gen_pa needs 2m <= 2**32; n={n}, d={d} gives {d * (2 * n - d - 1)}")
    bits = rng_from(master_seed, "pa", n, d).bit_generator
    ends = np.empty(d * (2 * n - d - 1), dtype=np.int64)
    ends[:d * (d + 1)] = _initial_ends(d)
    h, at = np.empty(0, dtype=np.uint32), 0  # the 32-bit draws fetched, the next one
    t, size = d + 1, 64
    while t < n:
        b, done = min(size, n - t), 0
        if size >= _PA_MIN_BLOCK:
            if at + b * d > len(h):
                h, at = _halves(bits, h[at:], b * d), 0
            t += (done := _pa_block(h[at:at + b * d], ends, t, d, b))
            at += done * d
        grow = done == b
        if not grow:  # step t one draw at a time: Lemire's test, repeats dropped
            start, picked, draws = d * (2 * t - d - 1), [], 0
            threshold = (1 << 32) % start
            while len(picked) < d:
                if at == len(h):
                    h, at = _halves(bits, h[at:], 1), 0
                m, at, draws = int(h[at]) * start, at + 1, draws + 1
                if m & _MASK32 >= threshold and (u := int(ends[m >> 32])) not in picked:
                    picked.append(u)
            ends[start:start + 2 * d:2] = picked
            ends[start + 1:start + 2 * d:2] = t
            t += 1
            grow = draws == d  # a step that would have passed as a block of one
        size = 2 * size if grow else max(1, size // 2)
    key = np.multiply(ends[::2], n)  # an edge is (older, newer) in ends
    key += ends[1::2]
    del ends  # freed before the sort
    return _plain_graph(n, key)


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
    node id equals creation step.  The draws are numpy's (module notes).
    """
    d = _integer("d", d, 2)
    n = _integer("n", n, d + 1)
    if d * (2 * n - d - 1) > 1 << 32:  # each step adds at most d edges
        raise ValueError(f"gen_security needs 2m <= 2**32; n={n}, d={d} gives "
                         f"{d * (2 * n - d - 1)}")
    if not a > 1:
        raise ValueError("homophyly exponent a must exceed 1")
    bits = rng_from(master_seed, "security", n, d, float(a).hex()).bit_generator

    # initial graph: K_{d+1}, all seeds, distinct colors.  Color c is founded
    # by seeds[c], so a seed's rank among the seeds is its color.
    color = array("q", range(d + 1))
    seeds = array("q", range(d + 1))
    members = [array("q", (i,)) for i in range(d + 1)]  # by color, birth order
    ends = _initial_ends(d)
    class_ends = [array("q", (i,)) * d for i in range(d + 1)]
    words, at, half = [], 0, -1  # the raw words fetched, the next one, a pending half

    for i in range(d + 1, n):
        # the coin takes a whole word, and a pending half stays pending
        if at == len(words):
            words, at = bits.random_raw(_WORDS_PER_FETCH).tolist(), 0
        seed = (words[at] >> 11) * (1.0 / (1 << 53)) < attachment_probability(i, a)
        at += 1
        # the first draw is the step's color or PA target; then a homophyly step in a
        # class of over d nodes draws d distinct endpoints, a seed step a choice of seeds
        high, first, picked = len(ends) if seed else len(seeds), -1, []
        while True:
            if half < 0:
                if at == len(words):
                    words, at = bits.random_raw(_WORDS_PER_FETCH).tolist(), 0
                x = words[at]
                at += 1
                half = x >> 32
                x &= _MASK32
            else:
                x, half = half, -1
            m = x * high  # Lemire's draw below high; the threshold only when it may reject
            if m & _MASK32 < high and m & _MASK32 < (1 << 32) % high:
                continue
            if first < 0:  # all of a seed step's draws, a homophyly step's first
                if not seed:
                    first = m >> 32
                    if len(members[first]) <= d:
                        break
                    pool = class_ends[first]
                    high = len(pool)
                elif picked:  # after the target, the choice's draws
                    picked.append(m >> 32)
                    if not highs:
                        break
                    high = highs.pop()
                else:  # the PA target; a seed target is left out, and K_{d+1} leaves >= d eligible
                    target = ends[m >> 32]
                    rank = color[target] if seeds[color[target]] == target else len(seeds)
                    eligible = len(seeds) - (rank < len(seeds))
                    highs = _choice_highs(eligible, d - 1)[::-1]  # pop() gives the next bound
                    high, picked = highs.pop(), [target]
            elif (u := pool[m >> 32]) not in picked:
                picked.append(u)
                if len(picked) == d:
                    break
        if seed:
            picked[1:] = [seeds[j + (j >= rank)] for j in _choice(eligible, d - 1, picked[1:])]
            for s in picked:
                class_ends[color[s]].append(s)
            color.append(len(seeds))
            members.append(array("q", (i,)))
            class_ends.append(array("q", (i,)) * d)
            seeds.append(i)
        else:
            picked = picked or members[first].tolist()
            color.append(first)
            members[first].append(i)
        pairs = [i] * (2 * len(picked))  # the edges (i, u) as endpoints
        pairs[1::2] = picked
        ends.fromlist(pairs)
        if not seed:
            class_ends[first].fromlist(pairs)
    del members, class_ends, words  # freed before the graph is built
    is_seed = np.zeros(n, dtype=bool)
    is_seed[np.frombuffer(seeds, dtype=np.int64)] = True
    eu, ev = _edges(ends)
    # past K_{d+1}, an edge's first endpoint is its step's node, so those
    # endpoints ascend, and a seed step's first edge is its PA_GLOBAL one
    k0 = d * (d + 1) // 2
    pa_keys = ev[k0 + np.searchsorted(eu[k0:], seeds[d + 1:])] * n + seeds[d + 1:]
    # one key older * n + newer per edge, sorted: the canonical (u, v) order
    key = np.multiply(ev, n)
    key += eu
    key[:k0] = eu[:k0] * n + ev[:k0]  # K_{d+1} is written (i, j), i < j
    del eu, ev, ends
    key.sort()
    pa_rows = np.searchsorted(key, pa_keys)
    older, newer = _decode(key, n)
    # an edge's newer endpoint is its step's node: below d + 1 in K_{d+1}
    tags = np.full(len(key), int(EdgeTag.HOMOPHYLY), dtype=np.uint8)
    tags[is_seed[newer]] = EdgeTag.SEED_LINK
    tags[newer <= d] = EdgeTag.INITIAL
    tags[pa_rows] = EdgeTag.PA_GLOBAL
    return LabeledGraph(n, np.array(color, dtype=np.int64), is_seed,
                        np.arange(n, dtype=np.int64), older, newer, tags)


def _choice_highs(pop: int, size: int) -> list[int]:
    """Bounds of numpy's draws for ``choice(pop, size, replace=False)``, 1 <= size
    < pop: a shuffle of range(pop)'s tail if pop > 10000 and size > pop // 50,
    else Floyd's algorithm, then a shuffle of its picks."""
    if pop > 10000 and size > pop // 50:
        return [*range(pop, pop - size, -1)]
    return [*range(pop - size + 1, pop + 1), *range(size, 1, -1)]


def _choice(pop: int, size: int, values: list) -> list:
    """numpy's ``choice(pop, size, replace=False)`` from its draws below
    ``_choice_highs(pop, size)``: size for the tail shuffle, else 2 size - 1."""
    if len(values) == size:  # the tail shuffle; at size 1 Floyd's one pick is the same
        moved: dict[int, int] = {}
        for high, v in zip(range(pop, pop - size, -1), values):
            moved[high - 1], moved[v] = moved.get(v, v), moved.get(high - 1, high - 1)
        return [moved.get(k, k) for k in range(pop - size, pop)]
    picks, seen = [], set()
    for high, v in zip(range(pop - size + 1, pop + 1), values):
        v = high - 1 if v in seen else v
        seen.add(v)
        picks.append(v)
    for j, v in zip(range(size - 1, 0, -1), values[size:]):
        picks[j], picks[v] = picks[v], picks[j]
    return picks


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
