"""Tests of the benchmark itself, on tiny inputs (about half a minute).

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_cascadelab()

import cascadelab  # noqa: E402
import tracing  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# inclusive times and totals; every other time is one layer's self time
NOT_SELF = {"experiment.run_experiment.s", "cascade.security_threshold.cascades_s",
            "cli.generate.s", "cli.cascade.s", "cli.injure.s",
            "cli.analyze.communities.s", "cli.analyze.degree-priority.s",
            "bench.traced_wall_s", "trace.overhead_s"}


def tiny_run(workload, trace, pinned=None, seed=3):
    """(exit code, printed lines) of one tiny run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)],
                        size="tiny", pinned=pinned)
    return code, buf.getvalue().splitlines()


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload: {workload: [result, result]}."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = []
        for _ in range(2):
            code, lines = tiny_run(workload, 1)
            assert code == 0, lines
            out[workload].append(json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    code, lines = tiny_run(workload, 0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == listed
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name] and metric["value"] > 0
    assert "ops_failed=0/" in lines[-3]


def test_traced_runs_print_every_per_layer_metric(traced):
    listed = [m["name"] for m in SPEC["per_layer"]]
    for results in traced.values():
        for result in results:
            assert result["correct"]
            assert list(result["metrics"]) == listed


def test_every_per_layer_metric_moves_on_some_workload(traced):
    # cells_failed is 0 at every workload while no cell fails
    idle = [name for name in UNITS if name not in
            {m["name"] for m in SPEC["end_to_end"]}
            and name != "experiment.cells_failed"
            and all(r[0]["metrics"][name]["value"] == 0
                    for r in traced.values())]
    assert idle == []


def test_exact_counts_repeat(traced):
    for workload, (first, second) in traced.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] in ("count", "B"):
                assert metric["value"] == second["metrics"][name]["value"], \
                    (workload, name)


def test_self_times_and_uncovered_add_up_to_traced_wall(traced):
    for results in traced.values():
        for result in results:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            parts = sum(v for k, v in m.items()
                        if UNITS[k] == "s" and k not in NOT_SELF)
            assert parts == pytest.approx(m["bench.traced_wall_s"], abs=1e-6)


def test_output_gate_fails_on_wrong_digest():
    code, lines = tiny_run("fig1", 0, pinned={"fig1.csv": "0" * 64})
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_same_seed_gives_same_digests():
    records = []
    for _ in range(2):
        code, lines = tiny_run("analysis", 0, seed=5)
        assert code == 0
        path = lines[-2][len("record: "):]
        records.append(json.loads((run.ROOT / path).read_text()))
    assert records[0]["digests"] == records[1]["digests"]
    assert list(records[0]["digests"]) == ["analysis.txt"]


def unwrapped_names():
    """Names in cascadelab modules bound to an unwrapped layer function."""
    originals = set()
    for module, attr, _, _ in tracing.LAYER_FUNCTIONS:
        fn = getattr(getattr(cascadelab, module), attr)
        originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [f"{mod.__name__}.{key}" for mod in tracing.cascadelab_modules()
            for key, value in vars(mod).items()
            if id(value) in originals and not hasattr(value, "__wrapped__")]


def test_tracer_wraps_every_binding_and_restores_them():
    assert "cascadelab.experiment.infection_set" in unwrapped_names()
    with tracing.installed(tracing.Tracer()):
        assert unwrapped_names() == []
        assert hasattr(cascadelab.experiment._compute_cell, "__wrapped__")
        assert hasattr(cascadelab.cli._cmd_cascade, "__wrapped__")
    assert not hasattr(cascadelab.cascade.infection_set, "__wrapped__")
    assert not hasattr(cascadelab.LabeledGraph.csr, "__wrapped__")


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
