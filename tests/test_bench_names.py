"""The benchmark traces refsig by name: every name it wraps must still exist,
or its per-layer metrics silently read zero."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for home in tracing.MODULES:
        importlib.import_module(f"refsig.{home}")
    for home, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"refsig.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"refsig.{home}.{name}"
    for home, cls_name, attr, span_name in tracing.METHODS:
        cls = getattr(importlib.import_module(f"refsig.{home}"), cls_name)
        assert attr in cls.__dict__, f"{span_name}: {cls_name}.{attr}"
