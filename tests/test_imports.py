"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "choosekit"


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name.

    An attribute access a.b reads the name a, so `import a.b` (which binds
    a) counts as used there.  __future__ imports bind nothing.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from . import bounds\n"
        "def f(x: Iterable) -> float:\n"
        "    return math.pi + bounds.alpha(2).alpha + os.path.sep.count(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "np"]


# __init__.py is skipped: its imports are the package's re-exports.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_the_documented_names():
    import types

    import choosekit

    exported = {
        name for name, value in vars(choosekit).items()
        if not (name.startswith("__") and name != "__version__")
        and not isinstance(value, types.ModuleType)
    }
    assert exported == {
        "BlockSpec", "RegimePoint", "STGraph", "blowup", "classify", "construct_blocks",
        "counterexample_graph", "decide_choosable", "fancy_bound", "has_proper_coloring",
        "p_blocked_exact", "p_blocked_monte_carlo", "__version__",
    }
