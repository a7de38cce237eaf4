"""The benchmark under perfbench/ wraps helmdec entry points by name; a
rename or deletion here would break it without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

import helmdec.decompose

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


def test_tracer_entry_points_resolve():
    entries = _entry_points()
    assert entries
    for module, function, *_ in entries:
        target = getattr(importlib.import_module(f"helmdec.{module}"), function, None)
        assert callable(target), f"helmdec.{module}.{function}"


def test_checks_split_type_exists():
    assert isinstance(helmdec.decompose.HelmholtzSplit, type)
