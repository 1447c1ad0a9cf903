"""The benchmark's tracing wrappers look up names in the program; each one
must resolve the way ``bench/tracing.py``'s ``install`` resolves it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    missing = []
    for module_name, cls_name, attr, _ in _load_tracing(monkeypatch).WRAPS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            cls = getattr(owner, cls_name, None)
            # install wraps the class's own method, never an inherited one
            found = cls is not None and attr in cls.__dict__
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{cls_name or ''}.{attr}")
    assert missing == []
