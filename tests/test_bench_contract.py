"""The benchmark's tracing wrappers look up names in the program; each one
must resolve the way ``bench/tracing.py``'s ``install`` resolves it."""

import functools
import importlib
import importlib.util
import re
import sys
from importlib import resources
from pathlib import Path

import molto.cli as cli

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


def _capped(name, **values):
    """The bundled config ``name`` with each given key's value replaced."""
    text = resources.files("molto.configs").joinpath(f"{name}.cfg").read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


def test_every_traced_name_is_called(monkeypatch, tmp_path):
    # a name that resolves but that the program no longer calls would read 0
    # in the per-layer table without any warning
    called, names = set(), set()

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, cls_name, attr, name in _load_tracing(monkeypatch).WRAPS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
        else:
            fn = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, counted(fn, name))
        names.add(name)

    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    sweeps = {
        "girder_desk": _capped("girder_desk", nx=12, ny=6, max_iterations=5,
                               max_levels=0),
        "lbracket": _capped("lbracket", nx=10, max_iterations=5, max_levels=1,
                            jobs=2),
    }
    for name, text in sweeps.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
    # the refinement on the factors runs only when a solve misses the gate
    assert names - called - {"elasticity.cg_fallback"} == set()
