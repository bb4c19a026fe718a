"""The demos import only names the package still has, and demo 01 runs.

Nothing else exercises ``demos/``, so without these checks an API removal
could break a demo silently. Demos 02 and 03 take too long for this suite;
their imports are checked without running them.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMOS_DIR.glob("*.py"))


def loadshapes_imports(path):
    """(module, name) for every import of loadshapes in ``path``; name is
    None for a plain ``import loadshapes...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "loadshapes":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "loadshapes":
                    yield alias.name, None


def test_every_demo_is_checked():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(loadshapes_imports(demo))
    assert imports, f"{demo.name} imports nothing from loadshapes"
    missing = [
        f"{module}.{name}" for module, name in imports
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_demo_01_runs(capsys):
    runpy.run_path(str(DEMOS_DIR / "01_shapes_and_cleaning.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "identical shapes for both baseloads: True" in out
    assert "same seed reproduces the draw: True" in out
