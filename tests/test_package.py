"""Tests for the public namespace of the package."""

import importlib
import pkgutil

import sternseq


def test_star_import_gives_all():
    namespace = {}
    exec("from sternseq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sternseq.__all__)


def test_every_exported_name_resolves():
    modules = [sternseq] + [
        importlib.import_module(f"sternseq.{info.name}")
        for info in pkgutil.iter_modules(sternseq.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
