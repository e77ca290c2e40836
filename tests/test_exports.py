"""Every name a weyllab module lists in ``__all__`` exists, every
exception a module defines is exported, and every name the traced benchmark
wraps exists."""

import functools
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys

import weyllab

MODULES = ["weyllab"] + [
    f"weyllab.{info.name}" for info in pkgutil.iter_modules(weyllab.__path__)
]


def test_all_exports_resolve():
    missing = {}
    for name in MODULES:
        module = importlib.import_module(name)
        absent = [n for n in module.__all__ if not hasattr(module, n)]
        if absent:
            missing[name] = absent
    assert "weyllab.operators" in MODULES
    assert missing == {}


def test_defined_exceptions_are_exported():
    unexported = {}
    for name in MODULES:
        module = importlib.import_module(name)
        faults = [
            attr for attr, obj in vars(module).items()
            if inspect.isclass(obj) and issubclass(obj, Exception)
            and obj.__module__ == name and attr not in module.__all__
        ]
        if faults:
            unexported[name] = faults
    assert unexported == {}


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
