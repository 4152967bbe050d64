"""Shared fixtures and the acceptance-criteria reporter.

SUITE_SEED is the one master seed behind every statistical test in the
suite; expensive graphs are cached per session so several test modules
can share them.  Property tests print the blob that reproduces a failing
example.  Where the platform has SIGALRM, a watchdog fails any test
that runs past WATCHDOG_S, so a hang (a cascade that never ends, say) fails
as a named test instead of stalling the suite.
"""

from __future__ import annotations

import io
import multiprocessing
import signal
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

import cascadelab as cl

# a failing property test prints the blob that reproduces its example
# (@reproduce_failure), even where its failure does not recur on its own;
# every other setting keeps its default or the test's own
settings.register_profile("cascadelab", print_blob=True)
settings.load_profile("cascadelab")

SUITE_SEED = 1
WATCHDOG_S = 300  # ten times the slowest test's ~30 s

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


def traced_peak(fn):
    """fn() and the most memory, in bytes, that tracemalloc traced while it
    ran (since the last ``tracemalloc.reset_peak()`` inside it); skips the
    test where tracemalloc is already in use."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc in use")
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class DiskFull(io.FileIO):
    """A file opened for writing whose first write puts half of its bytes
    on disk, then raises OSError("disk full"), as a filling disk does."""

    def write(self, data):
        data = memoryview(data).cast("B")
        super().write(data[:len(data) // 2])
        raise OSError("disk full")


def fill_disk(monkeypatch, when):
    """Make every write opened by Path.open(path, "wb") fail as DiskFull
    where ``when(path)`` holds; every other open is the real one."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if mode == "wb" and when(self):
            return DiskFull(self, mode)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


class Hang(BaseException):
    """The watchdog's error: not an Exception, so code that collects errors
    (``run_experiment``'s cells, say) cannot swallow it and hang again."""


@pytest.fixture(autouse=True)
def watchdog(request):
    """Raise Hang in a test still running after WATCHDOG_S.  A test may set
    an alarm of its own; it then ends the watchdog's alarm too, and the
    handler before the test is restored after it."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        # a pool's workers get no alarm; ending them stops the pool's shutdown
        # from waiting on their hung cells
        for child in multiprocessing.active_children():
            child.terminate()
        raise Hang(f"{request.node.nodeid} ran past {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
