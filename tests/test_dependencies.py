"""numpy is the package's only runtime dependency, every public name in it
has a caller, every parameter of a public callable is passed by one, and
every `None` default of one is left out by one."""

import ast
import sys
from collections import defaultdict
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

# Parameters kept though no call in src/ or perfbench/ passes them, each for a reason.
UNPASSED = {
    ("save_checkpoint", "config_text"):
        "CKP1's config blob, the slot that saved training state will use",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def _public_signatures(tree: ast.Module):
    """(name, positional parameters, keyword-only parameters, parameters
    whose default is `None`) of each public function and of each public
    non-dataclass class's `__init__`, `self` dropped. A dataclass's fields
    are settings, covered by test_settings.py."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            args, skip = node.args, 0
        else:
            init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            if _is_dataclass(node) or not init:
                continue
            args, skip = init[0].args, 1
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        none = {a for a, d in defaults if isinstance(d, ast.Constant) and d.value is None}
        yield node.name, positional[skip:], [a.arg for a in args.kwonlyargs], none


def _passed(call: ast.Call, positional: list[str], keyword_only: list[str]) -> set[str]:
    """The parameters `call` may pass: by position, by keyword, or through a
    `*` or `**` unpacking, which may pass any positional or any parameter."""
    if any(k.arg is None for k in call.keywords):
        return set(positional + keyword_only)
    if any(isinstance(a, ast.Starred) for a in call.args):
        by_position = positional
    else:
        by_position = positional[:len(call.args)]
    return set(by_position) | {k.arg for k in call.keywords}


def _calls():
    """Each call in src/ or perfbench/, by the name it calls: calls are
    matched by name, as `foo(...)` or `module.foo(...)`."""
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    return calls


def _called_signatures():
    for path in SOURCES:
        for signature in _public_signatures(ast.parse(path.read_text(), filename=str(path))):
            if signature[0] not in UNCALLED:
                yield signature


def test_every_parameter_is_passed_by_a_call_in_the_package_or_the_benchmark():
    calls = _calls()
    parameters, unpassed = set(), set()
    for name, positional, keyword_only, _ in _called_signatures():
        passed = set().union(*(_passed(c, positional, keyword_only) for c in calls[name]))
        parameters |= {(name, p) for p in positional + keyword_only}
        unpassed |= {(name, p) for p in positional + keyword_only if p not in passed}
    assert set(UNPASSED) <= parameters, \
        f"allowlisted parameters no longer defined: {set(UNPASSED) - parameters}"
    unpassed -= set(UNPASSED)
    assert not unpassed, f"parameters no call in src/ or perfbench/ passes: {sorted(unpassed)}"


def test_every_none_default_is_left_out_by_a_call_in_the_package_or_the_benchmark():
    # A `None` default is a sentinel that picks a second code path; one that
    # every call overrides picks a path no caller takes. A call that may
    # pass a parameter through `*` or `**` does not count as leaving it out.
    calls = _calls()
    always_passed = {(name, p) for name, positional, keyword_only, none in _called_signatures()
                     for p in none
                     if all(p in _passed(c, positional, keyword_only) for c in calls[name])}
    assert not always_passed, \
        f"None defaults every call in src/ or perfbench/ overrides: {sorted(always_passed)}"
