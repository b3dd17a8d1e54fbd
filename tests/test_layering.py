"""Package layering: the reference oracles stay out of production code."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (relative ones resolved)."""
    package = ".".join(("repro", *path.relative_to(SRC).parent.parts))
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def test_import_scan_resolves_relative_imports():
    assert "repro.core.lp_builder" in _imported_modules(SRC / "testing.py")
    assert "repro.lp.compiler" in _imported_modules(SRC / "core" / "lp_builder.py")
