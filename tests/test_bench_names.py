"""The names perfbench's tracer wraps must exist in cascadelab.

perfbench/tracing.py wraps layer functions by (module, attribute); a
renamed or deleted one would crash traced bench runs, so this reads the
tracer's table (without installing it) and resolves every entry.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from cascadelab.graph import LabeledGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    missing = [f"cascadelab.{mod}.{attr}"
               for mod, attr, _, _ in _tracing_module().LAYER_FUNCTIONS
               if not callable(getattr(
                   importlib.import_module(f"cascadelab.{mod}"), attr, None))]
    assert missing == []
    assert callable(LabeledGraph.csr)
