"""Experiment harness: attack/injury curves, cascade-size curves, and
security-threshold curves for the three network models, reproduced as CSV.

Each figure maps one per-graph step (seed graph j, generate it, pick the
attack order, measure) over a (model, n) cell's graphs, then aggregates
per figure.  One master seed determines every byte of output: graphs and
threshold trials draw from seeds derived per (experiment, model, n,
trial), and cells are independent work units, so results are identical
for any worker count.  Configs come from :func:`read_config` (a key=value
file whose errors name FILE:LINE, and typed overrides).

Outputs per experiment: ``<experiment>.csv`` plus ``manifest.txt``
recording the config hash, tool version and completed cells; per-cell row
fragments under ``cells/`` make interrupted runs resumable.  Each file is
written under a per-process temp name in its directory and renamed into
place, so an interrupted write leaves the previous file whole.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (_grid_error, degree_order, prefix_infection_counts,
                      prefix_injury_counts, random_thresholds,
                      security_threshold)
from .generators import generate
from .graph import _write_atomic
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
    """Invalid experiment configuration (CLI exit code 2), with the
    ``keys`` (config fields) whose values the failed check read."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def attack_size(n: int, scale: float = 1.0) -> int:
    """Logarithmic attack budget: ceil(scale * ln n), natural log."""
    return max(1, math.ceil(scale * math.log(n)))


# the parser of each config field's value in a file ([parser]: a list)
_FIELDS = {
    "experiment": lambda v: f"fig{v}" if v in ("1", "2", "3") else v,
    "models": [str.strip],
    "n_list": [int],
    "d": int,
    "a": float,
    "trials": int,
    "epsilon": float,
    "phi_grid": [float],
    "attack": str,
    "graphs_per_cell": int,
    "master_seed": int,
}
_ALIASES = {"seed": "master_seed", "fig": "experiment"}


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
        for key in ("models", "n_list", "phi_grid"):  # given as lists, hashed as tuples
            value = getattr(self, key)
            if isinstance(value, str) or not np.iterable(value):
                raise ConfigError(f"{key} takes a list, got {value!r}", key)
            object.__setattr__(self, key, tuple(value))
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.models:
            raise ConfigError("models must not be empty", "models")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("models must not repeat", "models")
        allowed = ("er", "pa") if self.experiment == "fig1" else _MODELS
        for model in self.models:
            if model not in allowed:
                raise ConfigError(
                    f"model {model!r} not valid for {self.experiment} "
                    f"(allowed: {', '.join(allowed)})", "models", "experiment")
        if not self.n_list:
            raise ConfigError("n_list must not be empty", "n_list")
        # integers as the generators take them: any value with __index__
        for key in ("n_list", "d", "trials", "graphs_per_cell", "master_seed"):
            value = getattr(self, key)
            for x in value if key == "n_list" else (value,):
                if not hasattr(x, "__index__"):
                    raise ConfigError(f"{key} takes integers, got {x!r}", key)
        for key in ("a", "epsilon", "phi_grid"):
            value = getattr(self, key)
            for x in value if key == "phi_grid" else (value,):
                if not isinstance(x, numbers.Real):
                    raise ConfigError(f"{key} takes numbers, got {x!r}", key)
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly ascending", "n_list")
        if self.d < 1:
            raise ConfigError("d must be at least 1", "d")
        if "security" in self.models:
            if self.d < 2:
                raise ConfigError("the security model requires d >= 2",
                                  "models", "d")
            if not self.a > 1:
                raise ConfigError("homophyly exponent a must exceed 1",
                                  "models", "a")
        if any(n < self.d + 1 for n in self.n_list):
            raise ConfigError("every n must be at least d + 1", "n_list", "d")
        if self.experiment == "fig1":
            for n in self.n_list:
                k_max = attack_size(n, _FIG1_ATTACK_SCALE)
                if k_max > n:
                    raise ConfigError(f"fig1 attacks up to ceil(5 ln n) = "
                                      f"{k_max} nodes, more than n={n}",
                                      "n_list", "experiment")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1", "trials")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must be in (0, 1)", "epsilon")
        if error := _grid_error(self.phi_grid, "phi_grid"):
            raise ConfigError(error, "phi_grid")
        if self.attack not in ("top", "random"):
            raise ConfigError("attack must be 'top' or 'random'", "attack")
        if self.attack != "top" and self.experiment != "fig2":
            raise ConfigError(f"{self.experiment} always attacks top-degree "
                              "nodes", "attack", "experiment")
        if self.graphs_per_cell < 1:
            raise ConfigError("graphs_per_cell must be at least 1",
                              "graphs_per_cell")
        if self.d < 4 and "security" in self.models:
            warnings.warn(  # named at the line that built the config
                f"d={self.d} < 4: security-model cascade containment "
                "weakens at small d", stacklevel=3)

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
        raise ConfigError(f"unknown experiment {experiment!r}", "experiment")
    return ExperimentConfig(experiment=experiment,
                            **{**_DEFAULTS[experiment], **overrides})


# ---- config file parsing ----------------------------------------------------

def numbered_lines(path):
    """The (number, text) of each line of a UTF-8 text file, one at a time; a
    byte that is not UTF-8 raises a ConfigError naming FILE:LINE at its line."""
    data = Path(path).read_bytes()
    lines = data.decode("utf-8", "surrogateescape").splitlines()  # as if strict
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # an escaped byte: the strict decode's message
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
        yield lineno, line


def read_config(path=None, **overrides) -> ExperimentConfig:
    """The validated config of a flat key=value file ('#' comments, each
    key set once, an alias counting as its target, every error that a file
    value causes naming FILE:LINE), with typed overrides on top."""
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in numbered_lines(path) if path is not None else ():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{where}: {key!r} repeats the setting "
                              f"on line {first_line[key]}")
        first_line[key] = lineno
        kind, text = _FIELDS[key], value.strip()
        try:
            if isinstance(kind, list):  # comma-separated, empty items skipped
                values[key] = tuple(kind[0](v) for v in text.split(",") if v.strip())
            else:
                values[key] = kind(text)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: bad value for {key!r}: {exc}") from None
    values.update(overrides)
    if "experiment" not in values:
        raise ConfigError("config must set experiment (fig1, fig2 or fig3)")
    try:
        return default_config(**values)
    except ConfigError as exc:
        if lines := [first_line[k] for k in exc.keys
                     if k in first_line and k not in overrides]:
            raise ConfigError(f"{path}:{max(lines)}: {exc}") from None
        raise


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


def _manifest_head(cfg: ExperimentConfig) -> list[str]:
    return ["cascadelab-manifest v1", f"version {__version__}",
            f"config {config_hash(cfg)}"]


def _write_manifest(out_dir: Path, cfg: ExperimentConfig,
                    done: set[str]) -> None:
    lines = _manifest_head(cfg) + [f"cell {c}" for c in sorted(done)]
    _write_atomic(out_dir / "manifest.txt",
                  ("\n".join(lines) + "\n").encode())


def _read_manifest(out_dir: Path, cfg: ExperimentConfig) -> set[str]:
    path = out_dir / "manifest.txt"
    if not path.exists():
        return set()
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[:3] != _manifest_head(cfg):
        return set()  # malformed, or another version or config: start over
    return {line.removeprefix("cell ").strip()
            for line in lines[3:] if line.startswith("cell ")}


@contextmanager
def _pool(workers: int):
    """A process pool for the cells.  Left by an error raised in the parent
    (a failed write, say), it cancels the queued cells and ends its running
    workers instead of waiting for them; the executor has no public handle
    on its workers before Python 3.14."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool
        except BaseException:
            running = list(pool._processes.values())
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in running:
                worker.terminate()
                worker.join()
            raise


def run_experiment(cfg: ExperimentConfig, out_dir=None,
                   jobs: int = 1) -> ExperimentResult:
    """Run every (model, n) cell of cfg, resuming from out_dir if possible.

    Returns the assembled CSV (header + rows in config order).  With
    out_dir set, writes ``<experiment>.csv``, ``manifest.txt`` and the
    per-cell fragments.  Cell failures are collected, not raised; an error
    raised in the parent (a failed write, say) cancels the queued cells and
    ends the running workers before it propagates.
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
    workers = min(jobs, len(todo))  # the pool starts all its workers at the first submit
    parallel = workers > 1
    # rows come from a pool future or a call in place, in todo order
    with _pool(workers) if parallel else nullcontext() as pool:
        futures = {cid: pool.submit(_compute_cell, cfg, *cells[cid])
                   for cid in todo} if parallel else {}
        for cid in todo:
            try:
                cell_rows = (futures[cid].result() if parallel
                             else _compute_cell(cfg, *cells[cid]))
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                failed[cid] = f"{type(exc).__name__}: {exc}"
                continue
            rows[cid] = cell_rows
            if cells_dir is not None:
                _write_atomic(cells_dir / f"{cid}.csv", "".join(
                    f"{row}\n" for row in cell_rows).encode())
                _write_manifest(out_dir, cfg, set(rows))

    csv_text = csv_path = None
    if not failed:
        lines = [_HEADERS[cfg.experiment]]
        for cid in cells:  # in config order: models, then n_list
            lines.extend(rows[cid])
        csv_text = "\n".join(lines) + "\n"
        if out_dir is not None:
            csv_path = out_dir / f"{cfg.experiment}.csv"
            _write_atomic(csv_path, csv_text.encode())
    computed = tuple(cid for cid in sorted(rows) if cid not in skipped)
    return ExperimentResult(csv_text=csv_text, csv_path=csv_path,
                            computed=computed, skipped=tuple(sorted(skipped)),
                            failed=failed)
