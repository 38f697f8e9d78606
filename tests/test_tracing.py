"""The benchmark tracer's hold on the package's private names.

benchmarks/tracing.py wraps, besides each layer's public functions, the
private functions named in its PRIVATE map. It looks them up only in
traced runs, so a refactor that renames one would otherwise pass every
tier-1 test.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _private_map():
    """The PRIVATE literal of the tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PRIVATE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PRIVATE map in {TRACING}")


def test_traced_private_names_exist():
    private = _private_map()
    assert private  # the oracle paths and the tracking curve at least
    for layer, names in private.items():
        module = importlib.import_module(f"fejerwell.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
