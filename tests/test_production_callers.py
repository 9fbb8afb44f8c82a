"""Every public top-level function and class in the package has a caller in
the package or the benchmark harness, so code that only tests reach does not
live in src/. Read with ast alone: nothing here imports the package."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "safetymap"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")
TRACER = ROOT / "perfbench" / "tracer.py"

# Public names kept without a production caller, each for a stated reason.
ALLOWED = {
    "init_frame_classifier": "the frame baseline, which waits for a train-frame command",
    "frame_train": "the frame baseline, which waits for a train-frame command",
}


def public_definitions() -> dict[str, str]:
    """{name: module file} of every public top-level function and class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                found[node.name] = path.name
    return found


def wrapped_names() -> set[str]:
    """The function names in perfbench/tracer.py's WRAPPED literal."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError(f"{TRACER} defines no WRAPPED table")


def referenced_names() -> set[str]:
    """Every bare name and attribute read in src/ and perfbench/, leaving
    out what a top-level definition says about its own name."""
    names = wrapped_names()
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


def test_every_public_definition_has_a_production_caller():
    used = referenced_names()
    orphans = [
        f"{module}: {name}"
        for name, module in sorted(public_definitions().items())
        if name not in used and name not in ALLOWED
    ]
    assert orphans == []


def test_allowlist_names_real_orphans():
    definitions, used = public_definitions(), referenced_names()
    assert sorted(name for name in ALLOWED if name not in definitions) == []
    assert sorted(name for name in ALLOWED if name in used) == []
