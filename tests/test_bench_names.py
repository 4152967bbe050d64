"""The cascadelab API that perfbench uses must keep working.

perfbench/tracing.py wraps layer functions by (module, attribute); a
renamed or deleted one would crash traced bench runs, so this reads the
tracer's table (without installing it) and resolves every entry.
perfbench/workloads.py drives the benchmark's workloads through the
public API; an API break there shows up only as failed bench operations,
so this runs each workload once at its tiny size (about 1 s in all).
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cascadelab.graph import LabeledGraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    layers = _perfbench_module("tracing").LAYER_FUNCTIONS
    missing = [f"cascadelab.{mod}.{attr}" for mod, attr, _, _ in layers
               if not callable(getattr(
                   importlib.import_module(f"cascadelab.{mod}"), attr, None))]
    assert missing == []
    assert callable(LabeledGraph.csr)


@pytest.mark.parametrize("name", ["fig1", "fig3", "cli-io", "analysis"])
def test_tiny_workload_has_no_failed_operations(name, tmp_path):
    workload = _perfbench_module("workloads").build(name, 0, "tiny")
    result = workload.run(workload.prepare(tmp_path))
    outcome = workload.outcome(result, tmp_path)
    assert outcome.attempted > 0
    assert outcome.failures == []
