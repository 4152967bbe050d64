"""Shared fixtures and the acceptance-criteria reporter.

SUITE_SEED is the one master seed behind every statistical test in the
suite; expensive graphs are cached per session so several test modules
can share them.
"""

from __future__ import annotations

import pytest

import cascadelab as cl

SUITE_SEED = 1

_GRAPH_CACHE: dict = {}


def cached_graph(model: str, n: int, d: int, a=None, seed: int = SUITE_SEED):
    """Session-wide memoized generation (only cache graphs reused across
    modules; throwaway Monte Carlo runs should call cl.generate)."""
    key = (model, n, d, a, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = cl.generate(model, n, d, a, master_seed=seed)
    return _GRAPH_CACHE[key]


def figure_csv(cfg) -> str:
    """The CSV of run_experiment(cfg); fails the test if any cell failed."""
    result = cl.run_experiment(cfg)
    assert result.ok, result.failed
    return result.csv_text


@pytest.fixture(scope="session")
def security_big():
    """The shared n=1e5 security-model graph (d=10, a=1.5)."""
    return cached_graph("security", 100_000, 10, 1.5)


@pytest.fixture(scope="session")
def security_mid():
    """A shared n=1e4 security-model graph (d=10, a=1.5)."""
    return cached_graph("security", 10_000, 10, 1.5)


# ---- acceptance reporting ----------------------------------------------------

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str, str]] = {}


def record_criterion(num: int, name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[num] = (bool(ok), name, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        ok, name, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num:2d} ({name}): {detail}")
