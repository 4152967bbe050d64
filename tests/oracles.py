"""Independent reference implementations used to check the library.

The cascade oracles deliberately share no code with cascadelab.cascade:
they compare infected-neighbor fractions directly and rescan until
stable.  The graph-file oracles are the per-line writer and parser that
the bulk ``serialize``/``deserialize`` replaced, kept verbatim.
"""

from __future__ import annotations

import numpy as np

from cascadelab.graph import (FORMAT_MAGIC, FORMAT_VERSION, EdgeTag,
                              GraphFormatError, LabeledGraph)


def rescan_infection(g, s, theta) -> set[int]:
    """Keep rescanning every node until nothing changes."""
    infected = set(int(x) for x in s)
    deg = g.degrees
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in infected or theta.uninfectable[v] or deg[v] == 0:
                continue
            hit = sum(1 for w in g.neighbors(v) if int(w) in infected)
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
            if v in infected or theta.uninfectable[v] or deg[v] == 0:
                continue
            hit = sum(1 for w in g.neighbors(v) if int(w) in infected)
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
            if v in infected or theta.uninfectable[v] or deg[v] == 0:
                continue
            hit = sum(1 for w in g.neighbors(v) if int(w) in infected)
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
            if v in infected or theta.uninfectable[v] or deg[v] == 0:
                continue
            hit = sum(1 for w in g.neighbors(v) if int(w) in infected)
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
    """Parse the canonical v1 format; errors name the offending line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        _fail(1, "empty file, expected header")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != FORMAT_MAGIC or head[1] != FORMAT_VERSION:
        _fail(1, f"malformed header {lines[0]!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        _fail(1, f"malformed header counts {lines[0]!r}")
    if n < 0 or m < 0:
        _fail(1, "negative node or edge count")
    if len(lines) != 1 + n + m:
        _fail(len(lines), f"expected {1 + n + m} lines for n={n}, m={m}, "
                          f"found {len(lines)}")

    color = np.empty(n, dtype=np.int64)
    is_seed = np.empty(n, dtype=bool)
    birth = np.empty(n, dtype=np.int64)
    for i in range(n):
        lineno = 2 + i
        parts = lines[1 + i].split(" ")
        if len(parts) != 5 or parts[0] != "N":
            _fail(lineno, f"malformed node line {lines[1 + i]!r}")
        try:
            nid, col, seed, bt = (int(parts[1]), int(parts[2]),
                                  int(parts[3]), int(parts[4]))
        except ValueError:
            _fail(lineno, f"non-integer field in node line {lines[1 + i]!r}")
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
        parts = lines[1 + n + j].split(" ")
        if len(parts) != 4 or parts[0] != "E":
            _fail(lineno, f"malformed edge line {lines[1 + n + j]!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            _fail(lineno, f"non-integer endpoint in {lines[1 + n + j]!r}")
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
