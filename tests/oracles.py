"""Independent reference implementations used to check the cascade engine.

These deliberately share no code with cascadelab.cascade: they compare
infected-neighbor fractions directly and rescan until stable.
"""

from __future__ import annotations

import numpy as np


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
