"""Every name a weyllab module lists in ``__all__`` exists, and so does
every name the traced benchmark wraps."""

import functools
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import weyllab


def test_all_exports_resolve():
    names = ["weyllab"] + [
        f"weyllab.{info.name}" for info in pkgutil.iter_modules(weyllab.__path__)
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [n for n in module.__all__ if not hasattr(module, n)]
        if absent:
            missing[name] = absent
    assert "weyllab.operators" in names
    assert missing == {}


def test_traced_benchmark_targets_resolve(monkeypatch):
    # bench/spans.py is loaded by path and left untouched (no bytecode)
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("weyllab_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, attribute, _ in spans.TARGETS:
        try:
            functools.reduce(getattr, attribute.split("."),
                             importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attribute}")
    assert any("RegularizedCoefficient." in a for _, _, a, _ in spans.TARGETS)
    assert missing == []
