"""Every name a weyllab module lists in ``__all__`` exists."""

import importlib
import pkgutil

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
