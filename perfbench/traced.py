"""Run one ``sternseq`` command in this process with per-layer tracing.

Usage: ``python3 perfbench/traced.py TRACE_JSON ARG...`` runs
``sternseq ARG...`` with standard output as given, and writes the
per-layer self times and work counts to ``TRACE_JSON``.  The package is
traced from outside: an import hook times the execution of each layer
module, and every public function of a layer is replaced by a timing
wrapper in each module that holds a reference to it (``from .x import y``
copies the name, so patching only the defining module would miss most
calls).

A span is one call of a wrapped function, or one layer-module import.
Spans nest (``stern_range`` recurses, ``records`` calls ``core``), and a
layer's self time is the sum over its spans of the span's duration
minus the duration of the spans it directly encloses, so the self times
of all layers add up to the time spent inside outermost spans.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("core", "records", "closedform", "fibonacci", "strings", "cli")
_MODULE_LAYER = {f"sternseq.{layer}": layer for layer in LAYERS}

#: Wrapped functions whose arguments feed a work count.
_BOUND_ARGS = ("core.stern_range", "records.records_scan")


class Tracer:
    """Aggregates spans into per-layer self time and counts work at the layer boundaries."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.requested_bits: dict[str, int] = {}
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def run(self, layer: str, fn, *args, **kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def caller_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, layer: str, name: str):
        signature = inspect.signature(fn) if name in _BOUND_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            caller = self.caller_layer()
            result = self.run(layer, fn, *args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, bound.arguments, result, caller)
            elif name == "closedform.generate_kbit":
                self.work["closedform.entries"] += len(result)
            return result

        return traced

    def _count(self, name: str, arguments: dict, result, caller: str | None) -> None:
        if name == "core.stern_range":
            cells = arguments["hi"] - arguments["lo"]
            self.work["core.stern_range.cells"] += cells
            if caller == "records":
                self.work["records.indices_scanned"] += cells
        else:  # records.records_scan
            convention = arguments["convention"]
            bits = max(arguments["k_max"], self.requested_bits.get(convention, 0))
            self.requested_bits[convention] = bits


class _TimedLayerImports(importlib.abc.MetaPathFinder):
    """Counts the execution of a layer module's body as self time of that layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = _MODULE_LAYER.get(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        spec.loader.exec_module = lambda module: self.tracer.run(layer, exec_module, module)
        return spec


def _public_functions(module) -> dict[int, object]:
    return {
        id(obj): obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Replace every public layer function by its wrapper in every ``sternseq`` module."""
    wrappers = {}
    for module_name, layer in _MODULE_LAYER.items():
        module = sys.modules[module_name]
        for key, fn in _public_functions(module).items():
            wrappers[key] = tracer.wrap(fn, layer, f"{layer}.{fn.__name__}")
    for name, module in list(sys.modules.items()):
        if name == "sternseq" or name.startswith("sternseq."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def report(tracer: Tracer) -> dict:
    scanned = tracer.work["records.indices_scanned"]
    needed = sum(1 << bits for bits in tracer.requested_bits.values())
    return {
        "self_s": tracer.self_s,
        "counts": {
            "core.stern_range.calls": tracer.calls["core.stern_range"],
            "core.stern_range.cells": tracer.work["core.stern_range.cells"],
            "core.stern_a.calls": tracer.calls["core.stern_a"],
            "records.records_scan.calls": tracer.calls["records.records_scan"],
            "records.indices_scanned": scanned,
            "closedform.generate_kbit.calls": tracer.calls["closedform.generate_kbit"],
            "closedform.entries": tracer.work["closedform.entries"],
            "fibonacci.calls": tracer.calls["fibonacci.fib"] + tracer.calls["fibonacci.lucas"],
            "strings.g_value.calls": tracer.calls["strings.g_value"],
            "strings.mu_of.calls": tracer.calls["strings.mu_of"],
        },
        # Distinct (convention, index) pairs the scans were asked for, per
        # index computed; 1 when nothing was scanned, as nothing was wasted.
        "records.scan_useful_ratio": needed / scanned if scanned else 1.0,
    }


def main(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    sys.meta_path.insert(0, _TimedLayerImports(tracer))
    import sternseq.cli

    install(tracer)
    try:
        code = sternseq.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(report(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
