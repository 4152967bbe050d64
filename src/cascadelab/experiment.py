"""Experiment harness: attack/injury curves, cascade-size curves, and
security-threshold curves for the three network models, reproduced as CSV.

Each figure maps one per-graph step (seed graph j, generate it, pick the
attack order, measure) over a (model, n) cell's graphs, then aggregates
per figure.  One master seed determines every byte of output: graphs and
threshold trials draw from seeds derived per (experiment, model, n,
trial), and cells are independent work units, so results are identical
for any worker count.

Outputs per experiment: ``<experiment>.csv`` plus ``manifest.txt``
recording the config hash, tool version and completed cells; per-cell row
fragments under ``cells/`` make interrupted runs resumable.  Each file is
written under a per-process temp name in its directory and renamed into
place, so an interrupted write leaves the previous file whole.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (degree_order, prefix_infection_counts,
                      prefix_injury_counts, random_thresholds,
                      security_threshold)
from .generators import generate
from .seeding import derive_seed, derive_trial_seed, rng_from

_MODELS = ("er", "pa", "security")
_EXPERIMENTS = ("fig1", "fig2", "fig3")

_HEADERS = {
    "fig1": "model,n,d,k,injury_fraction,max_infection_fraction",
    "fig2": "model,n,d,a,max_infection_fraction",
    "fig3": "model,n,d,a,security_threshold",
}

_DEFAULTS = {
    "fig1": {"models": ("er", "pa"), "n_list": (10_000,), "d": 10},
    "fig2": {"models": ("er", "pa", "security"),
             "n_list": (100, 300, 1_000, 3_000, 10_000), "d": 10},
    "fig3": {"models": ("er", "pa", "security"),
             "n_list": (1_000, 10_000, 30_000, 100_000), "d": 5},
}

_DEFAULT_PHI_GRID = tuple(i / 100 for i in range(1, 51))
_FIG1_ATTACK_SCALE = 5.0  # fig1 attack sizes run k = 1..ceil(5 ln n)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def attack_size(n: int, scale: float = 1.0) -> int:
    """Logarithmic attack budget: ceil(scale * ln n), natural log."""
    return max(1, math.ceil(scale * math.log(n)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run (see module docstring)."""

    experiment: str
    models: tuple[str, ...]
    n_list: tuple[int, ...]
    d: int
    a: float = 1.5
    trials: int = 100
    epsilon: float = 0.1
    phi_grid: tuple[float, ...] = _DEFAULT_PHI_GRID
    master_seed: int = 0
    attack: str = "top"
    graphs_per_cell: int = 1

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.models:
            raise ConfigError("models must not be empty")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("models must not repeat")
        allowed = ("er", "pa") if self.experiment == "fig1" else _MODELS
        for model in self.models:
            if model not in allowed:
                raise ConfigError(
                    f"model {model!r} not valid for {self.experiment} "
                    f"(allowed: {', '.join(allowed)})")
        if not self.n_list:
            raise ConfigError("n_list must not be empty")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly ascending")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if "security" in self.models:
            if self.d < 2:
                raise ConfigError("the security model requires d >= 2")
            if not self.a > 1:
                raise ConfigError("homophyly exponent a must exceed 1")
        if any(n < self.d + 1 for n in self.n_list):
            raise ConfigError("every n must be at least d + 1")
        if self.experiment == "fig1":
            for n in self.n_list:
                k_max = attack_size(n, _FIG1_ATTACK_SCALE)
                if k_max > n:
                    raise ConfigError(f"fig1 attacks up to ceil(5 ln n) = "
                                      f"{k_max} nodes, more than n={n}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must be in (0, 1)")
        if not self.phi_grid:
            raise ConfigError("phi_grid must not be empty")
        if any(not 0.0 < p <= 1.0 for p in self.phi_grid):
            raise ConfigError("phi_grid values must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.phi_grid, self.phi_grid[1:])):
            raise ConfigError("phi_grid must be strictly ascending")
        if self.attack not in ("top", "random"):
            raise ConfigError("attack must be 'top' or 'random'")
        if self.attack != "top" and self.experiment != "fig2":
            raise ConfigError(
                f"{self.experiment} always attacks top-degree nodes")
        if self.graphs_per_cell < 1:
            raise ConfigError("graphs_per_cell must be at least 1")
        if self.d < 4:
            warnings.warn(
                f"d={self.d} < 4: security-model cascade containment "
                "weakens at small d", stacklevel=2)

    def canonical_text(self) -> str:
        """Deterministic key=value dump, used for hashing and the manifest."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            parts.append(f"{f.name}={value}")
        return "\n".join(parts) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Config with the per-experiment default models/n_list/d filled in."""
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment=experiment,
                            **{**_DEFAULTS[experiment], **overrides})


# ---- config file parsing ----------------------------------------------------

def _tuple_of(cast):
    return lambda text: tuple(cast(v) for v in text.split(",") if v.strip())


_PARSERS = {"d": int, "trials": int, "master_seed": int,
            "graphs_per_cell": int, "a": float, "epsilon": float,
            "models": _tuple_of(str.strip), "n_list": _tuple_of(int),
            "phi_grid": _tuple_of(float)}
_ALIASES = {"seed": "master_seed", "fig": "experiment"}


def parse_config_file(path) -> dict:
    """Flat key=value config; '#' starts a comment, blank lines ignored.

    A key may be set once; an alias counts as its target key."""
    values: dict = {}
    first_line: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key!r} repeats the setting "
                              f"on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """Build a validated config from string-valued settings."""
    known = {f.name for f in fields(ExperimentConfig)}
    parsed: dict = {}
    for key, value in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, str):
            try:
                value = _PARSERS.get(key, str)(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
        parsed[key] = value
    if "experiment" not in parsed:
        raise ConfigError("config must set experiment (fig1, fig2 or fig3)")
    experiment = parsed.pop("experiment")
    if experiment in ("1", "2", "3"):
        experiment = f"fig{experiment}"
    return default_config(experiment, **parsed)


# ---- cell computation --------------------------------------------------------


def fmt_number(x: float) -> str:
    """The CSV number format: x to six decimals, trailing zeros and a bare
    point dropped (0.5, 1, 0.333333)."""
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return s or "0"


def cell_id(cfg: ExperimentConfig, model: str, n: int) -> str:
    return f"{cfg.experiment}_{model}_n{n}"


def _graph_result(cfg: ExperimentConfig, model: str, n: int, j: int):
    """Graph j of a (model, n) cell, measured: fig1's injury and
    max-infection fractions per attack size, fig2's max-infection fraction
    (maxima over the threshold trials), or fig3's security threshold."""
    g = generate(model, n, cfg.d, cfg.a if model == "security" else None,
                 master_seed=derive_seed(cfg.master_seed,
                                         f"{cfg.experiment}/graph", model, n, j))
    fig1 = cfg.experiment == "fig1"
    k = attack_size(n, _FIG1_ATTACK_SCALE if fig1 else 1.0)
    if cfg.attack == "random":
        order = rng_from(cfg.master_seed, f"{cfg.experiment}/attack", model,
                         n, j).choice(n, size=k, replace=False)
    else:
        order = degree_order(g, k)
    if cfg.experiment == "fig3":
        return security_threshold(g, order, cfg.phi_grid, cfg.epsilon)
    tag = cfg.experiment if j == 0 else f"{cfg.experiment}/g{j}"
    best = np.zeros(k)
    for t in range(cfg.trials):
        theta = random_thresholds(
            g, derive_trial_seed(cfg.master_seed, tag, model, n, t))
        best = np.maximum(best, prefix_infection_counts(g, order, theta) / n)
    return (prefix_injury_counts(g, order) / n, best) if fig1 else best[-1]


def _compute_cell(cfg: ExperimentConfig, model: str, n: int) -> list[str]:
    """All CSV data rows of one (model, n) cell, in canonical order."""
    results = [_graph_result(cfg, model, n, j)
               for j in range(cfg.graphs_per_cell)]
    if cfg.experiment == "fig1":
        injury, max_inf = (sum(column) for column in zip(*results))
        scale = 1.0 / cfg.graphs_per_cell
        return [f"{model},{n},{cfg.d},{k},{fmt_number(inj * scale)},"
                f"{fmt_number(inf * scale)}"
                for k, (inj, inf) in enumerate(
                    zip(injury.tolist(), max_inf.tolist()), start=1)]
    if cfg.experiment == "fig2":
        value = fmt_number(sum(results) / cfg.graphs_per_cell)
    else:  # fig3 averages the graphs that found a threshold
        found = [phi for phi in results if phi is not None]
        value = fmt_number(sum(found) / len(found)) if found else ""
    a_field = fmt_number(cfg.a) if model == "security" else ""
    return [f"{model},{n},{cfg.d},{a_field},{value}"]


# ---- orchestration -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """What a run produced: the CSV text (None if any cell failed), which
    cells were computed vs. resumed from disk, and per-cell failures."""

    csv_text: str | None
    csv_path: Path | None
    computed: tuple[str, ...]
    skipped: tuple[str, ...]
    failed: dict

    @property
    def ok(self) -> bool:
        return not self.failed


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temp name beside path, then rename it over path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _manifest_head(cfg: ExperimentConfig) -> list[str]:
    return ["cascadelab-manifest v1", f"version {__version__}",
            f"config {config_hash(cfg)}"]


def _write_manifest(out_dir: Path, cfg: ExperimentConfig,
                    done: set[str]) -> None:
    lines = _manifest_head(cfg) + [f"cell {c}" for c in sorted(done)]
    _write_atomic(out_dir / "manifest.txt", "\n".join(lines) + "\n")


def _read_manifest(out_dir: Path, cfg: ExperimentConfig) -> set[str]:
    path = out_dir / "manifest.txt"
    if not path.exists():
        return set()
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[:3] != _manifest_head(cfg):
        return set()  # malformed, or another version or config: start over
    return {line.removeprefix("cell ").strip()
            for line in lines[3:] if line.startswith("cell ")}


def run_experiment(cfg: ExperimentConfig, out_dir=None,
                   jobs: int = 1) -> ExperimentResult:
    """Run every (model, n) cell of cfg, resuming from out_dir if possible.

    Returns the assembled CSV (header + rows in config order).  With
    out_dir set, writes ``<experiment>.csv``, ``manifest.txt`` and the
    per-cell fragments.  Cell failures are collected, not raised.
    """
    cells = {cell_id(cfg, model, n): (model, n)
             for model in cfg.models for n in cfg.n_list}
    rows: dict[str, list[str]] = {}
    skipped: list[str] = []
    failed: dict = {}

    cells_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        cells_dir = out_dir / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
        done = _read_manifest(out_dir, cfg)
        for cid in cells:
            fragment = cells_dir / f"{cid}.csv"
            if cid in done and fragment.exists():
                rows[cid] = fragment.read_text(encoding="utf-8").splitlines()
                skipped.append(cid)

    todo = [cid for cid in cells if cid not in rows]

    def record(cid: str, cell_rows: list[str]) -> None:
        rows[cid] = cell_rows
        if cells_dir is not None:
            _write_atomic(cells_dir / f"{cid}.csv",
                          "\n".join(cell_rows) + "\n" if cell_rows else "")
            _write_manifest(out_dir, cfg, set(rows) - set(failed))

    if jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {cid: pool.submit(_compute_cell, cfg, *cells[cid])
                       for cid in todo}
            for cid, future in futures.items():
                exc = future.exception()
                if exc is not None:
                    failed[cid] = f"{type(exc).__name__}: {exc}"
                else:
                    record(cid, future.result())
    else:
        for cid in todo:
            try:
                cell_rows = _compute_cell(cfg, *cells[cid])
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                failed[cid] = f"{type(exc).__name__}: {exc}"
            else:
                record(cid, cell_rows)

    csv_text = csv_path = None
    if not failed:
        lines = [_HEADERS[cfg.experiment]]
        for model in cfg.models:
            for n in cfg.n_list:
                lines.extend(rows[cell_id(cfg, model, n)])
        csv_text = "\n".join(lines) + "\n"
        if out_dir is not None:
            csv_path = out_dir / f"{cfg.experiment}.csv"
            _write_atomic(csv_path, csv_text)
    computed = tuple(cid for cid in sorted(rows) if cid not in skipped)
    return ExperimentResult(csv_text=csv_text, csv_path=csv_path,
                            computed=computed, skipped=tuple(sorted(skipped)),
                            failed=failed)
