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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (degree_order, infection_set, prefix_injury_counts,
                      random_thresholds, top_degree_nodes, uniform_thresholds)
from .experiment import (ConfigError, _write_atomic, config_from_values,
                         fmt_number, parse_config_file, run_experiment)
from .generators import generate
from .graph import load_graph, save_graph
from .seeding import derive_trial_seed, rng_from
from .structure import (communities, community_conductances,
                        community_diameters, degree_priority_summary,
                        distance_stats, infection_priority_tree, navigate,
                        powerlaw_exponent)


def _write_csv(path, header: str, rows) -> None:
    _write_atomic(Path(path), "\n".join([header, *rows]) + "\n")


def _cmd_generate(args) -> int:
    g = generate(args.model, args.n, args.d, args.a, master_seed=args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g!r}")
    return 0


def _parse_attack(g, attack: str, k: int):
    if attack == "top":
        return top_degree_nodes(g, k)
    if attack.startswith("ids:"):
        path = attack[len("ids:"):]
        text = Path(path).read_text(encoding="utf-8")
        ids = []
        for lineno, line in enumerate(text.splitlines(), start=1):
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
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    g = load_graph(args.graph)
    attack = _parse_attack(g, args.attack, args.k)
    if phi is not None:
        theta = uniform_thresholds(g, phi)
        mode, parameter = "uniform", fmt_number(phi)
    rows = []
    for trial in range(args.trials):
        if phi is None:
            seed = derive_trial_seed(args.seed, "cascade", "graph", g.n, trial)
            theta = random_thresholds(g, seed)
            mode, parameter = "random", str(seed)
        out = infection_set(g, attack, theta)
        rows.append(f"{trial},{mode},{parameter},{out.growth[0]},"
                    f"{out.infected.shape[0]},{fmt_number(out.fraction)},"
                    f"{out.rounds}")
    _write_csv(args.out, "trial,threshold_mode,phi_or_seed,attack_size,"
                         "infected,infected_fraction,rounds", rows)
    print(f"wrote {args.out}: {len(rows)} trial(s)")
    return 0


def _cmd_injure(args) -> int:
    if args.attack != "top":
        raise ConfigError("injure supports only --attack top")
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    g = load_graph(args.graph)
    injured = prefix_injury_counts(g, degree_order(g, args.k))
    rows = [f"{k},{count},{fmt_number(count / g.n)}"
            for k, count in enumerate(injured.tolist(), start=1)]
    _write_csv(args.out, "attack_size,injured,injured_fraction", rows)
    print(f"wrote {args.out}: attack sizes 1..{args.k}")
    return 0


def _analyze_rows(g, args) -> tuple[str, list[str]]:
    report = args.report
    if report == "communities":
        return "color,seed,size", [
            f"{c.color},{c.seed},{c.size}" for c in communities(g)]
    if report == "conductance":
        rows = [f"{color},{r.size},{r.volume},{r.cut},"
                f"{fmt_number(r.conductance)}"
                for color, r in sorted(community_conductances(g).items())]
        return "color,size,volume,cut,conductance", rows
    if report == "degree-priority":
        summary = degree_priority_summary(g)
        columns = [np.arange(g.n), g.color, g.is_seed, g.degrees,
                   summary.length, summary.first_degree,
                   summary.second_degree, summary.own_color_first(g)]
        rows = list(map("{},{},{},{},{},{},{},{}".format,
                        *(c.astype(np.int64).tolist() for c in columns)))
        return ("node,color,is_seed,degree,length,first_degree,"
                "second_degree,own_color_first"), rows
    if report == "powerlaw":
        fit = powerlaw_exponent(g.degrees, args.d_min)
        return "n_samples,d_min,exponent,ccdf_r2", [
            f"{fit.sample_count},{fit.d_min},{fmt_number(fit.exponent)},"
            f"{fmt_number(fit.ccdf_r2)}"]
    if report == "distances":
        st = distance_stats(g, args.pairs, seed=args.seed)
        return "pairs_sampled,pairs_unreachable,avg_distance,est_diameter", [
            f"{st.pairs_sampled},{st.pairs_unreachable},"
            f"{fmt_number(st.avg_distance)},{st.est_diameter}"]
    if report == "ptree":
        tree = infection_priority_tree(g)
        return "vertices,edges,is_tree,height,violations", [
            f"{len(tree.vertex_colors)},{len(tree.edges)},"
            f"{int(tree.is_tree)},{tree.height},{len(tree.violations)}"]
    if report == "diameters":
        rows = [f"{color},{'inf' if math.isinf(dia) else int(dia)}"
                for color, dia in sorted(community_diameters(g).items())]
        return "color,diameter", rows
    if report == "navigate":
        rng = rng_from(args.seed, "cli-navigate", g.n)
        budget = args.hop_budget
        rows = []
        for i in range(args.pairs):
            u = int(rng.integers(0, g.n))
            v = int(rng.integers(0, g.n))
            res = navigate(g, u, v, budget)
            rows.append(f"{i},{u},{v},{int(res.succeeded)},"
                        f"{res.hops if res.succeeded else ''},{res.visited}")
        return "pair,u,v,success,hops,visited", rows
    raise ConfigError(f"unknown report {report!r}")


def _cmd_analyze(args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be at least 1, got {args.pairs}")
    g = load_graph(args.graph)
    header, rows = _analyze_rows(g, args)
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: {len(rows)} row(s)")
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    values = parse_config_file(args.config) if args.config else {}
    if args.fig is not None:
        values["experiment"] = f"fig{args.fig}"
    if args.seed is not None:
        values["master_seed"] = str(args.seed)
    cfg = config_from_values(values)
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
    p.add_argument("--report", required=True,
                   choices=("communities", "conductance", "degree-priority",
                            "powerlaw", "distances", "ptree", "diameters",
                            "navigate"))
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
