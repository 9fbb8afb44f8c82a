"""The traced benchmark pass wraps package functions by name; check that
every name it wraps still exists, so a rename fails here and not only in
the traced run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped_table() -> dict[str, tuple[str, ...]]:
    """The WRAPPED literal of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAPPED table")


def test_every_wrapped_function_exists():
    missing = [
        f"safetymap.{module_name}.{fn_name}"
        for module_name, names in wrapped_table().items()
        for fn_name in names
        if not callable(getattr(importlib.import_module(f"safetymap.{module_name}"), fn_name, None))
    ]
    assert missing == []
