"""numpy is the package's only runtime dependency, and every public name
in it has a caller."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "evssl").glob("*.py"))
# The package and the benchmark that drives it; tests are not callers.
CALLERS = SOURCES + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                           if not p.name.startswith("test_"))

# Public names kept without a caller in src/ or perfbench/, each for a reason.
UNCALLED = {
    "parse_text_events": "the text-event input boundary, tested for typed errors",
}


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_numpy_stdlib_or_the_package(path):
    foreign = {m for m in _imported_roots(path)
               if m != "numpy" and m not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_declares_numpy_as_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller_in_the_package_or_the_benchmark():
    referenced = {name for path in CALLERS
                  for name in _referenced_names(ast.parse(path.read_text(), filename=str(path)))}
    public = {name for path in SOURCES
              for name in _module_level_names(ast.parse(path.read_text(), filename=str(path)))
              if not name.startswith("_")}
    assert set(UNCALLED) <= public, f"allowlisted names no longer defined: {set(UNCALLED) - public}"
    uncalled = public - referenced - set(UNCALLED)
    assert not uncalled, f"public names with no caller in src/ or perfbench/: {sorted(uncalled)}"
