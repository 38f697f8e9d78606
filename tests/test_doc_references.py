"""The docs' hold on the package's names.

README.md and the package's docstrings cite modules' attributes by name
in backticks, `core._CHUNK` or `quantum._form`, private helpers among
them. A refactor that renames or deletes one would otherwise pass every
tier-1 test and leave the text pointing at nothing. DECISIONS.md is a
history, whose entries may name what is gone, and stays out.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fejerwell"
REFERENCE = re.compile(r"`(core|quantum|classical|optimizer|limits|cli)((?:\.\w+)+)`")


def _texts():
    """(where, text): README.md and every docstring of the package's modules."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'lineno', 1)}", doc


def _resolves(module: str, names: list[str]) -> bool:
    obj = importlib.import_module(f"fejerwell.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_backticked_references_name_existing_attributes():
    refs = [(where, m[1], m[2]) for where, text in _texts() for m in REFERENCE.finditer(text)]
    assert len(refs) >= 10  # README and the quantum docstring cite core._CHUNK and core._fraction at least
    broken = [f"{where}: {module}{path}" for where, module, path in refs if not _resolves(module, path.split(".")[1:])]
    assert not broken
