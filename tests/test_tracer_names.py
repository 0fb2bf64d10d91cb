"""The benchmark's tracer wraps names of the package by their text, so a
refactor that drops or renames one would only show when the tracer runs; these
checks run perfbench/tracing.py (it only defines names) and fail at once
instead."""

import importlib
import os
import runpy

from orecodes.gf import FiniteField

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")


def test_every_wrapped_name_resolves_under_orecodes():
    missing = []
    for mod, attr, _, _ in runpy.run_path(TRACING)["WRAPPED"]:
        owner = importlib.import_module(f"orecodes.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    assert missing == []


def test_every_counted_field_op_is_a_finite_field_method():
    assert [op for op in runpy.run_path(TRACING)["FIELD_OPS"] if not callable(getattr(FiniteField, op, None))] == []
