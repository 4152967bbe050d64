"""Command-line interface.

Subcommands:
  generate    build an ER / PA / security-model graph and write it to disk
  cascade     run threshold-cascade attacks on a stored graph, emit CSV
  injure      physical-removal injury curve for top-degree attacks
  analyze     structural reports (communities, conductance, powerlaw, ...)
  experiment  reproduce the figure datasets (fig1 / fig2 / fig3)

All commands are deterministic in their --seed: running twice produces
byte-identical output files.  Exit codes: 0 success, 2 configuration
error, 3 partial experiment failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import __version__
from .cascade import (degree_order, infection_set, prefix_injury_counts,
                      random_thresholds, top_degree_nodes, uniform_thresholds)
from .experiment import (ConfigError, fmt_number, numbered_lines, read_config,
                         run_experiment)
from .generators import generate
from .graph import _rows, _write_atomic, load_graph, save_graph
from .seeding import derive_trial_seed, rng_from
from .structure import (communities, community_conductances,
                        community_diameters, degree_priority_summary,
                        distance_stats, infection_priority_tree, navigate,
                        powerlaw_exponent)


def _wrote(path, what: str) -> int:
    """Report a written output; on stderr when the output is this process's
    stdout (``--out /dev/stdout``), so the report stays out of the data."""
    try:
        into_stdout = os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        into_stdout = False
    print(f"wrote {path}: {what}",
          file=sys.stderr if into_stdout else sys.stdout)
    return 0


def _write_csv(path, header: str, count: int, body) -> int:
    """Write the header line, then body's byte chunks as they come."""
    _write_atomic(path, itertools.chain((f"{header}\n".encode(),), body))
    return _wrote(path, f"{count} row(s)")


def _encoded(rows: list[str]):
    """The row count and the encoded lines of rows, a chunk each."""
    return len(rows), (f"{row}\n".encode() for row in rows)


# the least value of each count flag, checked in this order before any
# graph file is read; --k counts only for a top-degree attack
_LEAST = {"--trials": 1, "--k": 1, "--pairs": 1, "--hop-budget": 0, "--jobs": 1}


def _check_counts(args) -> None:
    for flag, least in _LEAST.items():
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least and (flag != "--k" or args.attack == "top"):
            raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _cmd_generate(args) -> int:
    g = generate(args.model, args.n, args.d, args.a, master_seed=args.seed)
    save_graph(g, args.out)
    return _wrote(args.out, repr(g))


def _top_k(g, k: int) -> int:
    """``--k`` of a top-degree attack on g; k >= 1 is checked before g is read."""
    if k > g.n:
        raise ConfigError(f"--k must be at most n = {g.n}, got {k}")
    return k


def _parse_attack(g, attack: str, k: int):
    if attack == "top":
        return top_degree_nodes(g, _top_k(g, k))
    if attack.startswith("ids:"):
        path = attack[len("ids:"):]
        ids = []
        for lineno, line in numbered_lines(path):
            for token in line.split():
                try:
                    v = int(token)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: attack id {token!r} "
                                      "is not an integer") from None
                if not 0 <= v < g.n:
                    raise ConfigError(f"{path}:{lineno}: attack id {v} is "
                                      f"outside 0..{g.n - 1}")
                ids.append(v)
        return ids
    raise ConfigError(f"attack must be 'top' or 'ids:FILE', got {attack!r}")


def _cmd_cascade(args) -> int:
    choice = args.thresholds
    phi = None
    if choice.startswith("uniform:"):
        try:
            phi = float(choice[len("uniform:"):])
        except ValueError:
            phi = math.nan
        if not 0.0 < phi <= 1.0:
            raise ConfigError(f"--thresholds needs uniform:PHI with PHI in "
                              f"(0, 1], got {choice!r}")
    elif choice != "random":
        raise ConfigError(
            f"thresholds must be 'uniform:PHI' or 'random', got {choice!r}")
    _check_counts(args)
    g = load_graph(args.graph)
    attack = _parse_attack(g, args.attack, args.k)
    if phi is not None:  # every trial is the same cascade: run it once
        out = infection_set(g, attack, uniform_thresholds(g, phi))
        mode, parameter = "uniform", fmt_number(phi)
    rows = []
    for trial in range(args.trials):
        if phi is None:
            seed = derive_trial_seed(args.seed, "cascade", "graph", g.n, trial)
            out = infection_set(g, attack, random_thresholds(g, seed))
            mode, parameter = "random", str(seed)
        rows.append(f"{trial},{mode},{parameter},{out.growth[0]},"
                    f"{out.infected.shape[0]},{fmt_number(out.fraction)},"
                    f"{out.rounds}")
    return _write_csv(args.out, "trial,threshold_mode,phi_or_seed,"
                      "attack_size,infected,infected_fraction,rounds",
                      *_encoded(rows))


def _cmd_injure(args) -> int:
    if args.attack != "top":
        raise ConfigError("injure supports only --attack top")
    _check_counts(args)
    g = load_graph(args.graph)
    injured = prefix_injury_counts(g, degree_order(g, _top_k(g, args.k)))
    rows = [f"{k},{count},{fmt_number(count / g.n)}"
            for k, count in enumerate(injured.tolist(), start=1)]
    return _write_csv(args.out, "attack_size,injured,injured_fraction",
                      *_encoded(rows))


def _navigate_rows(g, args):
    """--pairs random (u, v) pairs, each navigated within --hop-budget."""
    rng = rng_from(args.seed, "cli-navigate", g.n)
    rows = []
    for i in range(args.pairs):
        u = int(rng.integers(0, g.n))
        v = int(rng.integers(0, g.n))
        res = navigate(g, u, v, args.hop_budget)
        rows.append(f"{i},{u},{v},{int(res.succeeded)},"
                    f"{res.hops if res.succeeded else ''},{res.visited}")
    return _encoded(rows)


def _degree_priority_rows(g, args):
    """One row per node, by the array writer."""
    s = degree_priority_summary(g)
    return g.n, _rows(g.n, np.arange(g.n), b",", g.color, b",", g.is_seed, b",",
                      g.degrees, b",", s.length, b",", s.first_degree, b",",
                      s.second_degree, b",", s.own_color_first(g), b"\n")


# each --report: its CSV header and the builder of its (row count, chunks),
# which looks this module's names up when it runs, so rebinding one works
_REPORTS = {
    "communities": ("color,seed,size", lambda g, args: _encoded([
        f"{c.color},{c.seed},{c.size}" for c in communities(g)])),
    "conductance": ("color,size,volume,cut,conductance", lambda g, args: _encoded([
        f"{color},{r.size},{r.volume},{r.cut},{fmt_number(r.conductance)}"
        for color, r in sorted(community_conductances(g).items())])),
    "degree-priority": ("node,color,is_seed,degree,length,first_degree,"
                        "second_degree,own_color_first", _degree_priority_rows),
    "powerlaw": ("n_samples,d_min,exponent,ccdf_r2", lambda g, args: _encoded([
        f"{fit.sample_count},{fit.d_min},{fmt_number(fit.exponent)},"
        f"{fmt_number(fit.ccdf_r2)}"
        for fit in [powerlaw_exponent(g.degrees, args.d_min)]])),
    "distances": ("pairs_sampled,pairs_unreachable,avg_distance,est_diameter",
                  lambda g, args: _encoded([
        f"{st.pairs_sampled},{st.pairs_unreachable},"
        f"{fmt_number(st.avg_distance)},{st.est_diameter}"
        for st in [distance_stats(g, args.pairs, seed=args.seed)]])),
    "ptree": ("vertices,edges,is_tree,height,violations", lambda g, args: _encoded([
        f"{len(tree.vertex_colors)},{len(tree.edges)},{int(tree.is_tree)},"
        f"{tree.height},{len(tree.violations)}"
        for tree in [infection_priority_tree(g)]])),
    "diameters": ("color,diameter", lambda g, args: _encoded([
        f"{color},{fmt_number(dia)}"
        for color, dia in sorted(community_diameters(g).items())])),
    "navigate": ("pair,u,v,success,hops,visited", _navigate_rows),
}


def _cmd_analyze(args) -> int:
    _check_counts(args)
    g = load_graph(args.graph)
    header, build = _REPORTS[args.report]
    return _write_csv(args.out, header, *build(g, args))


def _cmd_experiment(args) -> int:
    _check_counts(args)
    overrides = {}
    if args.fig is not None:
        overrides["experiment"] = f"fig{args.fig}"
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    cfg = read_config(args.config, **overrides)
    result = run_experiment(cfg, out_dir=args.out, jobs=args.jobs)
    for cid in result.skipped:
        print(f"skipped {cid} (already complete)")
    for cid, err in sorted(result.failed.items()):
        print(f"FAILED {cid}: {err}", file=sys.stderr)
    if result.failed:
        return 3
    if result.csv_path is not None:
        print(f"wrote {result.csv_path}")
    else:
        sys.stdout.write(result.csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="Generate, attack and analyze networks of the "
                    "homophyly security model and its ER/PA baselines.")
    parser.add_argument("--version", action="version",
                        version=f"cascadelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph file")
    p.add_argument("--model", required=True, choices=("er", "pa", "security"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=float, default=None,
                   help="homophyly exponent (security model)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cascade", help="threshold-cascade attack trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--attack", default="top", help="'top' or 'ids:FILE'")
    p.add_argument("--k", type=int, default=1, help="attack size for 'top'")
    p.add_argument("--thresholds", required=True,
                   help="'uniform:PHI' or 'random'")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("injure", help="injury curve for node removal")
    p.add_argument("--graph", required=True)
    p.add_argument("--attack", default="top")
    p.add_argument("--k", type=int, required=True,
                   help="largest attack size; rows cover 1..k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_injure)

    p = sub.add_parser("analyze", help="structural reports as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--report", required=True, choices=tuple(_REPORTS))
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=1000,
                   help="sample size for distances/navigate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-min", type=int, default=2, dest="d_min",
                   help="power-law tail cutoff")
    p.add_argument("--hop-budget", type=int, default=64, dest="hop_budget")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("experiment", help="reproduce a figure dataset")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--fig", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
