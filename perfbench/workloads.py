"""The four benchmark workloads, driven through cascadelab's public API.

Each workload builds its inputs from the workload seed in ``__init__``
(the set-up the benchmark times as ``setup_s``), gets a fresh argument
for each repetition from ``prepare``, runs its timed part in ``run``, and
afterwards checks the outputs in ``outcome``, which also counts the
operations attempted and failed.  The benchmark digests every file the
repetition left in its out dir.  cascadelab receives only configs,
graphs and argv built from the seed.

Why these four:

* ``fig1`` -- cascades over nested top-degree attack sets on ER and PA
  graphs (n=1e4); ``infection_set`` dominates.
* ``fig3`` -- the default fig3 dataset: uniform-threshold scans of
  ``security_threshold`` on graphs up to n=1e5; generation and the
  threshold scan dominate.
* ``cli-io`` -- five CLI commands on one n=1e5 security graph file; every
  command re-reads the file, so graph I/O dominates, and it is the only
  workload that runs the ``cli`` layer.
* ``analysis`` -- structure reports, navigation and community
  classification on an n=1e5 security graph; the ``structure`` layer and
  the localized ``count_vulnerable`` cascade dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import cascadelab as cl
from cascadelab import cli, structure

# Sizes of the real workloads, and of the tiny smoke runs in the tests.
SIZES = {
    "full": {
        # six graphs per cell with one threshold trial each (the default is
        # one graph, 100 trials): one repetition takes ~11 s, and the time
        # varies less from seed to seed than with fewer, reused graphs
        "fig1": {"n": 10_000, "trials": 1, "graphs_per_cell": 6},
        "fig3": {},  # the experiment's defaults
        "cli-io": {"n": 100_000, "k": 12, "trials": 100},
        "analysis": {"n": 100_000, "pairs": 1_000, "queries": 1_000},
    },
    "tiny": {
        "fig1": {"n": 300, "trials": 2, "graphs_per_cell": 2},
        "fig3": {"n_list": (200, 500)},
        "cli-io": {"n": 2_000, "k": 5, "trials": 4},
        "analysis": {"n": 2_000, "pairs": 100, "queries": 50},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


class Outcome:
    """Operations a repetition attempted, and the reasons any failed."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


class Fig:
    """``run_experiment`` for fig1 or fig3 into a fresh out dir, jobs=1."""

    def __init__(self, experiment: str, seed: int, size: dict):
        overrides = {"master_seed": seed}
        if experiment == "fig1":
            overrides.update(n_list=(size["n"],), trials=size["trials"],
                             graphs_per_cell=size["graphs_per_cell"])
        elif "n_list" in size:
            overrides["n_list"] = size["n_list"]
        self.cfg = cl.default_config(experiment, **overrides)

    def prepare(self, out: Path):
        return out

    def run(self, out: Path):
        return cl.run_experiment(self.cfg, out_dir=out, jobs=1)

    def outcome(self, result, out: Path) -> Outcome:
        cfg = self.cfg
        cells = len(cfg.models) * len(cfg.n_list)
        res = Outcome(cells)
        for cid, err in sorted(result.failed.items()):
            res.check(False, f"cell {cid}: {err}")
        if result.failed:
            return res
        lines = result.csv_text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        manifest = (out / "manifest.txt").read_text().splitlines()
        res.check(sum(line.startswith("cell ") for line in manifest) == cells,
                  "manifest does not list every cell")
        if cfg.experiment == "fig1":
            per_cell = {n: cl.attack_size(n, 5.0) for n in cfg.n_list}
            res.check(len(rows) == sum(per_cell.values()) * len(cfg.models),
                      "fig1 row count")
            for model in cfg.models:
                inf = [float(r[5]) for r in rows if r[0] == model]
                # attack sets are nested prefixes and infection is monotone
                res.check(all(a <= b for a, b in zip(inf, inf[1:])),
                          f"fig1 {model}: max infection falls as k grows")
                res.check(all(0 <= float(r[4]) <= 1 and 0 < float(r[5]) <= 1
                              for r in rows if r[0] == model),
                          f"fig1 {model}: fraction outside [0, 1]")
        else:
            res.check(len(rows) == cells, "fig3 row count")
            # an empty value means no grid threshold contains the cascade
            res.check(all(r[4] == "" or float(r[4]) in cfg.phi_grid
                          for r in rows), "fig3 threshold off the phi grid")
        return res


class CliIO:
    """``cascadelab.cli.main`` in-process, one command after another."""

    def __init__(self, seed: int, size: dict):
        self.size = size
        self.seed = seed

    def commands(self, out: Path) -> list[list[str]]:
        size, seed = self.size, str(self.seed)
        g = str(out / "graph.txt")
        return [
            ["generate", "--model", "security", "--n", str(size["n"]),
             "--d", "10", "--a", "1.5", "--seed", seed, "--out", g],
            ["cascade", "--graph", g, "--attack", "top", "--k", str(size["k"]),
             "--thresholds", "random", "--trials", str(size["trials"]),
             "--seed", seed, "--out", str(out / "cascade.csv")],
            ["injure", "--graph", g, "--k", str(size["k"]),
             "--out", str(out / "injure.csv")],
            ["analyze", "--graph", g, "--report", "communities",
             "--out", str(out / "communities.csv")],
            ["analyze", "--graph", g, "--report", "degree-priority",
             "--out", str(out / "degree-priority.csv")],
        ]

    def prepare(self, out: Path):
        return out

    def run(self, out: Path) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands(out):
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    codes.append(repr(exc))
        return codes

    def outcome(self, codes, out: Path) -> Outcome:
        res = Outcome(len(codes))
        for argv, code in zip(self.commands(out), codes):
            res.check(code == 0, f"{argv[0]} exited with {code}")
        if any(code != 0 for code in codes):
            return res

        def rows(name):
            return (out / name).read_text().count("\n") - 1

        n, size = self.size["n"], self.size
        with open(out / "graph.txt") as fh:
            res.check(fh.readline().split()[2] == str(n), "graph header n")
        res.check(rows("cascade.csv") == size["trials"], "cascade row count")
        res.check(rows("injure.csv") == size["k"], "injure row count")
        res.check(0 < rows("communities.csv") < n, "communities row count")
        res.check(rows("degree-priority.csv") == n, "degree-priority row count")
        return res


class Analysis:
    """Library calls on a security graph generated during set-up.

    Every repetition gets its own graph object, so no cached CSR,
    communities or adjacency carries over from one repetition to the next.
    """

    PHIS = (0.1, 0.2, 0.3)
    HOP_BUDGET = 64

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.graph = cl.generate("security", size["n"], 10, 1.5,
                                 master_seed=seed)
        rng = np.random.default_rng(seed)
        self.queries = rng.integers(0, size["n"], size=(size["queries"], 2))

    def prepare(self, out: Path):
        """A new graph object with empty caches, sharing the set-up arrays."""
        g = self.graph
        return cl.LabeledGraph(g.n, g.color, g.is_seed, g.birth_time,
                               g.edge_u, g.edge_v, g.edge_tag, validate=False)

    def run(self, g):
        results, errors = {}, []

        def call(key, fn, *args):
            try:
                results[key] = fn(*args)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors.append(f"{key}: {exc!r}")

        call("conductances", cl.community_conductances, g)
        call("degree_priority", structure.degree_priority_summary, g)
        call("priority_tree", cl.infection_priority_tree, g)
        call("distances", cl.distance_stats, g, self.size["pairs"], self.seed)
        call("diameters", cl.community_diameters, g)
        for i, (u, v) in enumerate(self.queries.tolist()):
            call(("navigate", i), cl.navigate, g, u, v, self.HOP_BUDGET)
        call(("vulnerable", "random"), cl.count_vulnerable, g,
             cl.random_thresholds(g, self.seed))
        for phi in self.PHIS:
            call(("vulnerable", phi), cl.count_vulnerable, g,
                 cl.uniform_thresholds(g, phi))
        return g, results, errors

    def operations(self) -> int:
        return 5 + self.size["queries"] + 1 + len(self.PHIS)

    @staticmethod
    def dump(g, results) -> str:
        """Canonical text of the results; floats print with repr()."""
        arrays = (g.color, g.is_seed, g.birth_time, g.edge_u, g.edge_v,
                  g.edge_tag)
        lines = [f"graph {sha256(b''.join(a.tobytes() for a in arrays))}"]
        ds = results["distances"]
        lines.append(f"distances {ds.avg_distance!r} {ds.est_diameter} "
                     f"{ds.pairs_sampled} {ds.pairs_unreachable}")
        lines += [f"diameter {c} {d!r}"
                  for c, d in sorted(results["diameters"].items())]
        lines += [f"conductance {c} {r.size} {r.volume} {r.cut} "
                  f"{r.conductance!r}"
                  for c, r in sorted(results["conductances"].items())]
        dp = results["degree_priority"]
        lines.append("degree-priority " + sha256(b"".join(
            a.tobytes() for a in (dp.length, dp.first_degree,
                                  dp.second_degree, dp.top_color))))
        tree = results["priority_tree"]
        lines.append(f"priority-tree {len(tree.vertex_colors)} "
                     f"{len(tree.edges)} {tree.is_tree} {tree.height} "
                     f"{len(tree.violations)}")
        lines += [f"navigate {key[1]} {r.hops} {r.visited}"
                  for key, r in results.items()
                  if isinstance(key, tuple) and key[0] == "navigate"]
        lines += [f"vulnerable {key[1]} {count}"
                  for key, count in results.items()
                  if isinstance(key, tuple) and key[0] == "vulnerable"]
        return "\n".join(lines) + "\n"

    def outcome(self, result, out: Path) -> Outcome:
        g, results, errors = result
        res = Outcome(self.operations())
        for err in errors:
            res.check(False, err)
        if errors:
            return res
        (out / "analysis.txt").write_text(self.dump(g, results))
        ds = results["distances"]
        res.check(ds.pairs_sampled == self.size["pairs"]
                  and ds.pairs_unreachable == 0 and ds.avg_distance > 0
                  and ds.est_diameter >= 1, "distance stats")
        colors = {c.color for c in cl.communities(g)}
        res.check(set(results["diameters"]) == colors, "diameter keys")
        res.check(set(results["conductances"]) == colors, "conductance keys")
        indptr, indices = g.adjacency()
        for i, (u, v) in enumerate(self.queries.tolist()):
            r = results[("navigate", i)]
            path = r.path or ()
            res.check(r.visited >= 1, f"navigate {i}: nothing visited")
            res.check(not r.succeeded or (
                path[0] == u and path[-1] == v
                and r.hops == len(path) - 1 <= self.HOP_BUDGET
                and all(b in indices[indptr[a]:indptr[a + 1]]
                        for a, b in zip(path, path[1:]))),
                f"navigate {i}: invalid path")
        uniform = [results[("vulnerable", phi)] for phi in self.PHIS]
        res.check(all(0 <= c <= len(colors) for c in uniform)
                  and 0 <= results[("vulnerable", "random")] <= len(colors),
                  "vulnerable count out of range")
        # a higher uniform threshold can only make communities stronger
        res.check(all(a >= b for a, b in zip(uniform, uniform[1:])),
                  "vulnerable count grows with phi")
        return res


def build(name: str, seed: int, size: str = "full"):
    params = SIZES[size][name]
    if name in ("fig1", "fig3"):
        return Fig(name, seed, params)
    if name == "cli-io":
        return CliIO(seed, params)
    return Analysis(seed, params)

