"""Package layering: the reference oracles stay out of production code, the
core analyses stay off the LP layer, and SciPy loads only where an LP is
built or solved — in no command."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _names_type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _import_time_nodes(tree: ast.AST):
    """Every node that runs when the module is imported.

    Function bodies and ``if TYPE_CHECKING:`` blocks are skipped; an import
    statement cannot hide anywhere else (decorators, defaults and lambdas
    are expressions).
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.If) and _names_type_checking(child.test):
                stack.extend(child.orelse)
                continue
            stack.append(child)


def _imported_modules(path: Path, *, import_time_only: bool = False) -> set[str]:
    """Absolute names of every module ``path`` imports (relative ones resolved).

    With ``import_time_only`` only the imports that run when ``path`` itself
    is imported count, not the lazy ones inside functions.
    """
    package = ".".join(("repro", *path.relative_to(SRC).parent.parts))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in _import_time_nodes(tree) if import_time_only else ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(base) if node.level else ""
            if node.module:
                module = f"{module}.{node.module}" if module else node.module
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_production_never_imports_the_reference_oracles():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "testing.py" and "repro.testing" in _imported_modules(path)
    ]
    assert offenders == []


def test_core_analyses_import_no_lp():
    # every analysis runs on forward passes: within repro.core only the LP
    # builder (and the package's re-export of it) reaches the LP layer
    fenced = {"repro.core.lp_builder", "repro.lp.model", "repro.lp.backends"}
    offenders = {
        path.name: sorted(fenced & _imported_modules(path))
        for path in sorted((SRC / "core").glob("*.py"))
        if path.name not in ("lp_builder.py", "__init__.py")
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_import_scan_resolves_relative_imports():
    assert "repro.core.lp_builder" in _imported_modules(SRC / "testing.py")
    assert "repro.lp.compiler" in _imported_modules(SRC / "core" / "lp_builder.py")


def test_scipy_is_never_imported_at_import_time():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if any(
            name.split(".")[0] == "scipy"
            for name in _imported_modules(path, import_time_only=True)
        )
    ]
    assert offenders == []


def test_chunked_ingest_uses_only_the_readers_public_names():
    # the trace and GOAL formats are known to their own modules only
    owners = ("repro.trace.format", "repro.schedgen.goal")
    private = [
        name for name in _imported_modules(SRC / "schedgen" / "streaming.py")
        if name.rpartition(".")[0] in owners and name.rpartition(".")[2].startswith("_")
    ]
    assert private == []


def test_import_time_scan_skips_function_bodies_and_type_checking():
    assembler = SRC / "lp" / "assembler.py"
    assert "scipy.sparse" in _imported_modules(assembler)
    import_time = _imported_modules(assembler, import_time_only=True)
    assert "repro.lp.model" in import_time
    assert "scipy.sparse" not in import_time


_FRESH_INTERPRETER_SCRIPT = """
import contextlib, io, json, os, sys

from repro import cli

tmp = sys.argv[1]
trace = os.path.join(tmp, "lulesh.trace")
goal = os.path.join(tmp, "lulesh.goal")
commands = [
    ["analyze", "lulesh", "--nranks", "4", "--json"],
    ["curve", "lulesh", "--nranks", "4", "--json"],
    ["sweep", "lulesh", "--nranks", "2"],
    ["fleet", "lulesh", "--nranks", "2", "--processes", "1", "--json"],
    ["trace", "lulesh", "--nranks", "2", "--output", trace],
    ["goal", "lulesh", "--nranks", "2", "--output", goal],
    ["ingest", "trace", trace, "--json"],
    ["ingest", "goal", goal, "--json"],
    ["cache", "warm", "lulesh", "--nranks", "2", "--dir", os.path.join(tmp, "store")],
    ["place", "milc", "--nranks", "4", "--nodes", "2", "--json"],
]
loaded = {"import": "scipy" in sys.modules}
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[" ".join(argv[:2])] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy_in_a_fresh_interpreter(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "place milc" in loaded
    assert loaded == dict.fromkeys(loaded, False)


def test_place_imports_no_lp_layer():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (place,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_cmd_place"]
    imported = {
        f"repro.{node.module}" for node in ast.walk(place)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported and not [
        name for name in imported
        if name.startswith(("repro.lp", "repro.core.lp_builder"))
    ]
