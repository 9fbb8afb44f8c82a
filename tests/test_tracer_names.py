"""The traced benchmark pass wraps package functions by name; check that
every name it wraps still exists, so a rename fails here and not only in
the traced run."""

from __future__ import annotations

import importlib

from conftest import wrapped_table


def test_every_wrapped_function_exists():
    missing = [
        f"safetymap.{module_name}.{fn_name}"
        for module_name, names in wrapped_table().items()
        for fn_name in names
        if not callable(getattr(importlib.import_module(f"safetymap.{module_name}"), fn_name, None))
    ]
    assert missing == []
