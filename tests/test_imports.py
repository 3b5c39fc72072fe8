"""Every module of the package uses each name it imports, every name it
defines has a reader outside the tests, and a command imports numpy only if
it uses it."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "choosekit"
BENCH = SRC.parent.parent / "bench"


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


def unread_definitions(package: dict, readers: list) -> list:
    """module.name of each top-level function, class and constant of the
    package (module name -> source) that no code reads outside its own
    definition.

    A name is read in its own module by a load of it, and anywhere in the
    package or readers (further sources) by an import of it or an attribute
    access .name.  The attribute rule cannot tell modules apart, so it may
    miss an unread name, never flag a read one.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    others = [ast.parse(source) for source in readers]
    outside = set()
    for tree in [*trees.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                outside.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                outside.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            loads = {
                n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in own
            }
            unread += [f"{module}.{name}" for name in names if name not in loads | outside]
    return unread


def test_unread_definitions_finds_what_it_should():
    package = {
        "a": "X = 1\nY: int = 2\ndef f():\n    return f()\ndef g():\n    return X\n",
        "b": "from .a import g\nclass C:\n    def m(self):\n        return C\n",
    }
    readers = ["import choosekit.b as b\nb.C().m()\n"]
    assert unread_definitions(package, readers) == ["a.Y", "a.f"]


def test_every_definition_is_read_or_exported():
    # the package's re-exports are its documented API; the benchmark's own
    # tests read no more than tests do
    package = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    readers = [p.read_text() for p in BENCH.glob("*.py") if p.name != "bench_tests.py"]
    exported = {
        a.name for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) for a in node.names
    }
    unread = unread_definitions(package, readers)
    assert [name for name in unread if name.split(".")[1] not in exported] == []


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


def test_commands_that_need_no_numpy_do_not_import_it(run_python, tmp_path):
    script = (
        "import sys\n"
        "import choosekit, choosekit.cli as cli\n"
        "path = sys.argv[1]\n"
        "cli.main(['construct', 'blocks', '--ka', '2', '--a', '1', '--out', path])\n"
        "for argv in (['decide', '--point', '3,3,2,2'], ['classify', '--point', '3,3,2,2'],\n"
        "             ['bounds', '--k', '3'], ['check', '--in', path],\n"
        "             ['frontier', '--ka', '2', '--kb', '2', '--maxA', '2', '--maxB', '3']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    done = run_python("-c", script, str(tmp_path / "inst.json"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect(run_python):
    # the value types are named tuples, which need neither module; -S keeps
    # site hooks of the interpreter's own packages from loading either first
    script = (
        "import sys\n"
        "import choosekit, choosekit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = run_python("-S", "-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert [p.name for p in SRC.glob("*.py") if "dataclass" in p.read_text()] == []


# Every test module imports numpy before these run, so only a fresh
# interpreter reaches the imports inside the functions that use it.
@pytest.mark.parametrize(
    "argv",
    [["pblocked", "--counterexample", "--mc", "1000", "--seed", "5"], ["selftest", "--only", "9"]],
    ids="_".join,
)
def test_numpy_commands_print_their_in_process_output(run_python, capsys, argv):
    from choosekit import cli

    code = cli.main(argv)
    out = capsys.readouterr().out
    done = run_python("-m", "choosekit", *argv)
    timing = r" \[\d+\.\d\ds of \d+s allowed\]"  # selftest's wall-time bracket
    assert (done.returncode, re.sub(timing, "", done.stdout)) == (code, re.sub(timing, "", out))
    assert done.stderr == ""
