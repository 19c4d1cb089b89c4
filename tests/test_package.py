"""Tests of the package namespace and of the benchmark's tracer hooks into it."""

import importlib.util
import types
from pathlib import Path

import bnspecht


def test_all_lists_no_modules():
    assert bnspecht.__all__
    assert [n for n in bnspecht.__all__ if isinstance(getattr(bnspecht, n), types.ModuleType)] == []
    assert {"specht_generators", "ResourceLimits", "hasse_diagram"} <= set(bnspecht.__all__)


def load_tracing():
    """bench/tracing.py, loaded by path; the file is only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracer_lists_only_methods_its_classes_define():
    """The tracer looks each listed method up in its class's __dict__."""
    tracing = load_tracing()
    for (layer, cls_name), methods in tracing.CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"bnspecht.{layer}"), cls_name)
        assert [m for m in methods if m not in cls.__dict__] == [], cls_name


def test_bench_tracer_wraps_what_it_lists_and_unwraps_it():
    """The tracer names methods by string, so removing one breaks the traced benchmark."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        names = tracing.traced_names()
    finally:
        tracer.uninstall()
    assert names
    listed = {f"{cls}.{m}" for (_, cls), methods in tracing.CLASS_METHODS.items() for m in methods}
    assert listed <= set(names)
    assert tracing.traced_names() == []
