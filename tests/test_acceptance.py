"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line in the terminal summary (see conftest.pytest_terminal_summary).

Statistical criteria run at the fixed suite master seed; calibrated
bounds come from frozen_constants and were frozen before these tests
were finalized.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

import cascadelab as cl
from cascadelab import ExperimentConfig, ThresholdAssignment
from cascadelab.cli import main as cli_main
from cascadelab.structure import degree_priority_summary, pair_distances, sample_lcc_pairs

from conftest import SUITE_SEED, cached_graph, figure_csv, record_criterion
from frozen_constants import DIST_C2, HEIGHT_C3, SIZE_C1
from oracles import (async_sweep_infection, random_attack, random_small_graph,
                     rescan_infection)


def criterion(num: int, name: str):
    """Record the criterion verdict (including errors) and then assert it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                parts = fn(*args, **kwargs)
            except Exception as exc:
                record_criterion(num, name, False, f"errored: {exc!r}")
                raise
            ok = all(good for _, good, _ in parts)
            detail = "; ".join(
                f"{label} {text}" + ("" if good else " <FAIL>")
                for label, good, text in parts)
            record_criterion(num, name, ok, detail)
            assert ok, f"criterion {num} ({name}): {detail}"

        return wrapper

    return deco


def part(label, ok, text):
    return (label, bool(ok), text)


# ---- 1: cascade oracle equivalence ------------------------------------------------


@criterion(1, "cascade oracle equivalence")
def test_criterion_1():
    rng = np.random.default_rng(SUITE_SEED)
    start = time.perf_counter()
    for i in range(1000):
        g = random_small_graph(rng, i)
        s = random_attack(rng, g.n)
        theta = (cl.random_thresholds(g, i) if i % 2
                 else cl.uniform_thresholds(g, float(rng.uniform(0.05, 1.0))))
        engine = set(int(x) for x in cl.infection_set(g, s, theta).infected)
        assert engine == rescan_infection(g, s, theta), f"instance {i}"
        assert engine == async_sweep_infection(g, s, theta, rng), f"instance {i}"
    elapsed = time.perf_counter() - start
    return [
        part("1000 instances match rescan + async oracles,", True, "exact"),
        part("runtime", elapsed < 10.0, f"{elapsed:.1f}s (< 10s)"),
    ]


# ---- 2: monotonicity suite ---------------------------------------------------------


@criterion(2, "monotonicity suite")
def test_criterion_2():
    rng = np.random.default_rng(SUITE_SEED + 1)
    for i in range(200):
        g = random_small_graph(rng, 5000 + i)
        theta = (cl.random_thresholds(g, i) if i % 2
                 else cl.uniform_thresholds(g, float(rng.uniform(0.05, 1.0))))
        small = set(random_attack(rng, g.n))
        larger = small | set(random_attack(rng, g.n))
        inf_small = set(cl.infection_set(g, small, theta).infected.tolist())
        inf_large = set(cl.infection_set(g, larger, theta).infected.tolist())
        assert inf_small <= inf_large, f"attack monotonicity broke at {i}"

        bump = rng.uniform(0.0, 0.5, size=g.n)
        harder = ThresholdAssignment(np.minimum(theta.phi + bump, 1.0))
        s = set(random_attack(rng, g.n))
        inf_soft = set(cl.infection_set(g, s, theta).infected.tolist())
        inf_hard = set(cl.infection_set(g, s, harder).infected.tolist())
        assert inf_hard <= inf_soft, f"threshold monotonicity broke at {i}"
    return [part("200 attack-set and 200 threshold pairs,", True, "exact")]


# ---- 3: Fig 1 reproduction -----------------------------------------------------------


@criterion(3, "fig1: infection far exceeds injury at k = ln n")
def test_criterion_3():
    cfg = ExperimentConfig(experiment="fig1", models=("er", "pa"),
                           n_list=(10_000,), d=10, trials=100,
                           master_seed=SUITE_SEED)
    start = time.perf_counter()
    csv = figure_csv(cfg)
    elapsed = time.perf_counter() - start
    k_target = math.ceil(math.log(10_000))
    values = {}
    sweep_dominates = True
    for line in csv.strip().split("\n")[1:]:
        model, _, _, k, injury, infection = line.split(",")
        sweep_dominates &= float(infection) > float(injury)
        if int(k) == k_target:
            values[model] = (float(injury), float(infection))
    parts = []
    for model in ("er", "pa"):
        injury, infection = values[model]
        parts.append(part(f"{model}: max infection", infection >= 0.25,
                          f"{infection:.3f} (>= 0.25)"))
        parts.append(part(f"{model}: injury", injury <= 0.05,
                          f"{injury:.4f} (<= 0.05)"))
    parts.append(part("infection > injury at every k <= 5 ln n:",
                      sweep_dominates, "exact"))
    parts.append(part("runtime", elapsed <= 600, f"{elapsed:.0f}s (<= 600s)"))
    return parts


# ---- 4: Fig 2 reproduction -----------------------------------------------------------


@criterion(4, "fig2: security model contains ln n attacks")
def test_criterion_4():
    cfg = ExperimentConfig(experiment="fig2",
                           models=("er", "pa", "security"),
                           n_list=(10_000,), d=10, a=1.5, trials=100,
                           master_seed=SUITE_SEED)
    csv = figure_csv(cfg)
    values = {}
    for line in csv.strip().split("\n")[1:]:
        fields = line.split(",")
        values[fields[0]] = float(fields[4])
    sec, er, pa = values["security"], values["er"], values["pa"]
    return [
        part("security max infection", sec <= 0.1, f"{sec:.4f} (<= 0.1)"),
        part("below ER", sec < er, f"{sec:.4f} < {er:.4f}"),
        part("below PA", sec < pa, f"{sec:.4f} < {pa:.4f}"),
    ]


# ---- 5: Fig 3 reproduction -----------------------------------------------------------


@criterion(5, "fig3: security thresholds are the lowest curve")
def test_criterion_5():
    cfg = ExperimentConfig(experiment="fig3",
                           models=("er", "pa", "security"),
                           n_list=(1_000, 10_000, 100_000), d=5, a=1.5,
                           epsilon=0.1, master_seed=SUITE_SEED)
    csv = figure_csv(cfg)
    values: dict[tuple[str, int], float] = {}
    for line in csv.strip().split("\n")[1:]:
        model, n, _, _, phi = line.split(",")
        values[(model, int(n))] = float(phi) if phi else math.inf
    parts = []
    for n in cfg.n_list:
        sec = values[("security", n)]
        er = values[("er", n)]
        pa = values[("pa", n)]
        ok = sec <= er and sec <= pa
        parts.append(part(f"n={n}:", ok,
                          f"security {sec:.2f} <= er {er:.2f}, pa {pa:.2f}"))
    return parts


# ---- 6: fundamental-principle statistics ------------------------------------------------


@criterion(6, "fundamental statistics at n=1e5")
def test_criterion_6():
    n, d, a = 100_000, 10, 1.5
    ln_n = math.log(n)
    expected = cl.expected_seed_count(n, d, a) - (d + 1)
    seed_ok, size_ok, dist_ok = True, True, True
    worst_seed_ratio, worst_size, worst_dist = 1.0, 0.0, 0.0
    for run in range(1, 11):
        g = cl.generate("security", n, d, a, master_seed=run)
        observed = int(g.is_seed.sum()) - (d + 1)
        ratio = observed / expected
        seed_ok &= 0.7 <= ratio <= 1.3
        worst_seed_ratio = max(worst_seed_ratio, abs(ratio - 1) + 1)
        biggest = max(c.size for c in cl.communities(g))
        size_ok &= biggest <= SIZE_C1 * ln_n ** (a + 1)
        worst_size = max(worst_size, biggest)
        avg = cl.distance_stats(g, 400, seed=run).avg_distance
        dist_ok &= avg <= DIST_C2 * ln_n
        worst_dist = max(worst_dist, avg)
    return [
        part("seed count within 30% of direct summation", seed_ok,
             f"(worst ratio {worst_seed_ratio:.3f}, expectation {expected:.0f})"),
        part("max community size", size_ok,
             f"{worst_size:.0f} <= {SIZE_C1 * ln_n ** (a + 1):.0f}"),
        part("avg distance", dist_ok,
             f"{worst_dist:.2f} <= {DIST_C2 * ln_n:.2f}"),
    ]


# ---- 7: priority-tree principle -----------------------------------------------------------


@criterion(7, "priority tree across sizes")
def test_criterion_7():
    all_trees, heights_ok, directions_ok = True, True, True
    worst = {}
    for n in (1_000, 10_000, 100_000):
        bound = HEIGHT_C3 * math.log(n)
        tallest = 0
        for run in range(1, 21):
            g = cl.generate("security", n, 10, 1.5, master_seed=run)
            tree = cl.infection_priority_tree(g)
            all_trees &= tree.is_tree
            heights_ok &= tree.height <= bound
            tallest = max(tallest, tree.height)
            births = tree.vertex_births
            directions_ok &= all(births[c] > births[p] for c, p in tree.edges)
        worst[n] = (tallest, bound)
    detail = ", ".join(f"n={n}: {h}<={b:.1f}" for n, (h, b) in worst.items())
    return [
        part("is_tree in all 60 runs", all_trees, ""),
        part("heights", heights_ok, detail),
        part("edges all point later -> earlier,", directions_ok, "exact"),
    ]


# ---- 8: degree-priority statistics -----------------------------------------------------------


@criterion(8, "degree priority at n=1e5")
def test_criterion_8():
    own_ok, second_ok = True, True
    own_worst, second_worst = 1.0, 0.0
    for run in range(1, 4):
        g = cl.generate("security", 100_000, 10, 1.5, master_seed=run)
        summary = degree_priority_summary(g)
        own_frac = float(summary.own_color_first(g).mean())
        own_ok &= own_frac >= 0.9
        own_worst = min(own_worst, own_frac)
        med2 = float(np.median(summary.second_degree))
        second_ok &= med2 <= 2
        second_worst = max(second_worst, med2)
    medians = []
    for n in (1_000, 10_000, 100_000):
        pooled = []
        for run in range(1, 6):
            g = cl.generate("security", n, 10, 1.5, master_seed=run)
            summary = degree_priority_summary(g)
            pooled.extend(summary.first_degree[g.is_seed].tolist())
        medians.append(float(np.median(pooled)))
    growing = medians[0] < medians[1] < medians[2]
    return [
        part("own color is top class for", own_ok,
             f">= 90% of nodes (worst {own_worst:.4f})"),
        part("median second degree", second_ok, f"{second_worst:.0f} (<= 2)"),
        part("seed first-degree medians grow:", growing,
             " -> ".join(f"{m:.0f}" for m in medians)),
    ]


# ---- 9: power-law recovery -----------------------------------------------------------------


@criterion(9, "power-law recovery")
def test_criterion_9():
    rng = np.random.default_rng(SUITE_SEED + 9)
    parts = []
    for alpha in (2.1, 2.5, 3.0):
        u = rng.random(100_000)
        x = np.floor(9.5 * (1 - u) ** (-1 / (alpha - 1)) + 0.5)
        fit = cl.powerlaw_exponent(x, 10)
        parts.append(part(f"synthetic alpha={alpha}:",
                          abs(fit.exponent - alpha) <= 0.05,
                          f"estimate {fit.exponent:.3f} (+-0.05)"))
    estimates = []
    for run in range(1, 11):
        g = cl.gen_pa(100_000, 10, master_seed=run)
        estimates.append(cl.powerlaw_exponent(g.degrees, 10).exponent)
    mean_est = float(np.mean(estimates))
    parts.append(part("PA exponent (10-run mean)", 2.5 <= mean_est <= 3.5,
                      f"{mean_est:.3f} in [2.5, 3.5]"))
    return parts


# ---- 10: navigation --------------------------------------------------------------------------


@criterion(10, "navigation on n=1e5 security graphs")
def test_criterion_10():
    g = cached_graph("security", 100_000, 10, 1.5)
    pair_u, pair_v = sample_lcc_pairs(g, 1000, seed=SUITE_SEED + 10,
                                      max_sources=50)
    exact = pair_distances(g, pair_u, pair_v)
    budget = 10 * math.ceil(math.log(g.n))
    results = [cl.navigate(g, int(u), int(v), budget)
               for u, v in zip(pair_u, pair_v)]
    success = float(np.mean([r.succeeded for r in results]))
    hops = np.array([r.hops for r in results if r.succeeded], dtype=float)
    visited = float(np.mean([r.visited for r in results]))
    mean_exact = float(exact[np.isfinite(exact)].mean())
    stretch_ok = hops.mean() <= 3 * mean_exact
    return [
        part("success rate", success >= 0.99, f"{success:.3f} (>= 0.99)"),
        part("mean path length", stretch_ok,
             f"{hops.mean():.2f} <= 3 x BFS {mean_exact:.2f}"),
        part("mean visited nodes", True, f"{visited:.1f} (reported)"),
    ]


# ---- 11: CLI determinism ----------------------------------------------------------------------


def _cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"cli {argv} exited {code}"


@criterion(11, "CLI determinism (incl. --jobs 8)")
def test_criterion_11(tmp_path):
    checks = []

    def twice(name, *argv_of):
        paths = []
        for rep in (1, 2):
            out = tmp_path / f"{name}{rep}"
            _cli(*[str(a).replace("@OUT@", str(out)) for a in argv_of])
            paths.append(out)
        same = paths[0].read_bytes() == paths[1].read_bytes()
        checks.append(part(name, same, "byte-identical"))
        return paths[0]

    graph = twice("generate", "generate", "--model", "security", "--n", 3000,
                  "--d", 6, "--a", 1.5, "--seed", SUITE_SEED, "--out", "@OUT@")
    twice("cascade", "cascade", "--graph", graph, "--attack", "top",
          "--k", 8, "--thresholds", "random", "--trials", 5,
          "--seed", SUITE_SEED, "--out", "@OUT@")
    twice("injure", "injure", "--graph", graph, "--attack", "top",
          "--k", 8, "--out", "@OUT@")
    twice("analyze-distances", "analyze", "--graph", graph, "--report",
          "distances", "--pairs", 60, "--seed", SUITE_SEED, "--out", "@OUT@")
    twice("analyze-navigate", "analyze", "--graph", graph, "--report",
          "navigate", "--pairs", 25, "--seed", SUITE_SEED, "--out", "@OUT@")

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er,pa,security\n"
                   "n_list=100,300\nd=6\na=1.5\ntrials=20\n",
                   encoding="utf-8")
    outputs = []
    for rep in (1, 2):
        out_dir = tmp_path / f"exp{rep}"
        _cli("experiment", "--config", cfg, "--seed", SUITE_SEED,
             "--out", out_dir, "--jobs", 8)
        outputs.append((out_dir / "fig2.csv").read_bytes()
                       + (out_dir / "manifest.txt").read_bytes())
    checks.append(part("experiment --jobs 8", outputs[0] == outputs[1],
                       "byte-identical"))
    return checks
