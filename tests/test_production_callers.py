"""Every public top-level function and class in the package has a caller in
the package or the benchmark harness, and every keyword-only parameter of a
public function is passed by name in one of their calls, so code that only
tests reach does not live in src/. Read with ast alone: this module imports
none of the package."""

from __future__ import annotations

import ast
from pathlib import Path

from conftest import wrapped_table

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "safetymap"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")


def public_nodes() -> list[tuple[str, ast.stmt]]:
    """(module file, definition) of every public top-level function and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                found.append((path.name, node))
    return found


def public_definitions() -> dict[str, str]:
    """{name: module file} of every public top-level function and class."""
    return {node.name: module for module, node in public_nodes()}


def referenced_names() -> set[str]:
    """Every bare name and attribute read in src/ and perfbench/, leaving
    out what a top-level definition says about its own name."""
    names = {name for names in wrapped_table().values() for name in names}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                own = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        names.add(name)
    return names


def keywords_passed() -> dict[str, set[str]]:
    """{called name: every keyword that some call of it in src/ or
    perfbench/ passes by name}, a call naming its function as a bare name
    or as an attribute."""
    passed: dict[str, set[str]] = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.setdefault(name, set()).update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def test_every_public_definition_has_a_production_caller():
    used = referenced_names()
    orphans = [
        f"{module}: {name}"
        for name, module in sorted(public_definitions().items())
        if name not in used
    ]
    assert orphans == []


def test_every_keyword_only_parameter_is_passed_by_a_production_call():
    passed = keywords_passed()
    unpassed = [
        f"{module}: {node.name} {arg.arg}"
        for module, node in public_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.kwonlyargs
        if arg.arg not in passed.get(node.name, set())
    ]
    assert unpassed == []
