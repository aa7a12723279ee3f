"""Spans around the public functions of every hklab module, installed from
outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module, plus the methods in ``METHODS``, and replaces the original at every
binding that holds it: the defining module, each module that imported it,
the package namespace and dicts such as the CLI's handler table.  A
self-check then fails if any hklab module, dict, sequence, class, default
argument or closure still holds an original, or if a module exists that is
not a known layer, so a refactor cannot quietly move time out of a layer.

Each span records its name, start, end, parent and thread.  Every thread
keeps its own stack of open spans; a span opened on a worker thread with an
empty stack takes the innermost open span of the main thread as parent, so
self time of the caller excludes the time its workers ran.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("fp_linalg", "graded", "colength", "curves", "limits", "diagonal", "store", "cli")

# Public methods with per-layer metrics; the span drops the class name.
METHODS = (
    ("graded", "HypersurfaceRing", "monomial_basis"),
    ("graded", "HypersurfaceRing", "normal_form"),
    ("store", "ResultStore", "get"),
    ("store", "ResultStore", "put"),
)


def _matrix_in(args, kwargs, result):
    rows, cols = args[0].array.shape
    return {"rows": rows, "cols": cols, "cells": rows * cols, "bytes": args[0].array.nbytes}


def _matrix_out(args, kwargs, result):
    import numpy as np

    return {"cells": result.array.size, "nnz": int(np.count_nonzero(result.array))}


# Counts recorded after each call returns; cells and bytes are computed from
# array shapes, not measured traffic.
PROBES = {
    "fp_linalg.rank_mod_p": _matrix_in,
    "graded.graded_map_matrix": _matrix_out,
    "colength.colength": lambda a, k, r: {"pieces": len(r.dims)},
    "curves.cohomology_profile": lambda a, k, r: {"twists": r.m_max + 1},
    # d_f ranks a square matrix on the prod(k_1..k_{s-1}) monomials
    "diagonal.d_f": lambda a, k, r: {"cells": math.prod(a[1:-1]) ** 2},
    "store.get": lambda a, k, r: {"hits": int(r is not None)},
    "store.put": lambda a, k, r: {"bytes": os.path.getsize(a[0]._path(a[1]))},
    "cli.main": lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]},
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, thread id, attrs or None]
        self.spans = []
        self.names = set()
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)
        tracer = self
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            record = [name, 0.0, 0.0, parent, threading.get_ident(), None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if probe is not None:
                record[5] = probe(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hklab.cli  # noqa: F401  (loads every layer)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "hklab" or name.startswith("hklab.")
        }
        unknown = set(modules) - {"hklab"} - {f"hklab.{layer}" for layer in LAYERS}
        if unknown:
            raise RuntimeError(f"hklab modules outside every known layer: {sorted(unknown)}")
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"hklab.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[value] = self.wrap(value, f"{layer}.{attr}")
        for layer, cls_name, meth in METHODS:
            name = f"{layer}.{meth}"
            if name in self.names:
                raise RuntimeError(f"span name {name} is taken by a module function")
            cls = getattr(modules[f"hklab.{layer}"], cls_name)
            original = vars(cls)[meth]
            wrapped[original] = self.wrap(original, name)
            setattr(cls, meth, wrapped[original])
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            value[key] = wrapped[item]
        self._self_check(modules, set(wrapped))

    @staticmethod
    def _self_check(modules: dict, originals: set) -> None:
        def holders(value):
            if isinstance(value, dict):
                yield from value.values()
            elif isinstance(value, (list, tuple, set, frozenset)):
                yield from value
            elif inspect.isclass(value):
                yield from vars(value).values()
            elif inspect.isfunction(value):
                # a wrapper's closure holds its original by design
                value = getattr(value, "__wrapped__", value)
                yield from value.__defaults__ or ()
                yield from (value.__kwdefaults__ or {}).values()
                for cell in value.__closure__ or ():
                    try:
                        yield cell.cell_contents
                    except ValueError:  # empty cell
                        pass

        leaks = []
        for mod_name, mod in modules.items():
            for attr, value in vars(mod).items():
                for item in (value, *holders(value)):
                    if inspect.isfunction(item) and item in originals:
                        leaks.append(f"{mod_name}.{attr} -> {item.__qualname__}")
        if leaks:
            raise RuntimeError("unwrapped hklab functions remain: " + "; ".join(leaks))

    # -- summary ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, thread, attrs) in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "thread": thread,
                }
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")

    def stats(self) -> dict:
        """Per span name: calls, inclusive time of outermost calls, self
        time, and sums and maxima of the probed counts.

        ``cli.main`` spans are counted under ``cli.<command>``.  Times of
        spans on different threads add up, so a layer busy on two worker
        threads can report more seconds than the step's wall time.
        """
        spans = self.spans
        names = [
            f"cli.{s[5]['command']}" if s[0] == "cli.main" and s[5] else s[0] for s in spans
        ]
        children = defaultdict(list)
        for index, span in enumerate(spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": defaultdict(int), "max": defaultdict(int)}
        )
        for index, (_, start, end, parent, _, attrs) in enumerate(spans):
            st = out[names[index]]
            st["calls"] += 1
            st["self_s"] += (end - start) - _covered(start, end, [spans[c] for c in children[index]])
            ancestor = parent
            while ancestor is not None and names[ancestor] != names[index]:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                st["s"] += end - start
            for key, value in (attrs or {}).items():
                if isinstance(value, int):
                    st["sum"][key] += value
                    st["max"][key] = max(st["max"][key], value)
        return out

    def worker_time(self, step_span: list) -> float:
        """Summed time of spans that worker threads opened while
        ``step_span`` ran on the main thread."""
        total = 0.0
        for _, start, end, parent, thread, _ in self.spans:
            if (
                thread != self.main_thread
                and parent is not None
                and self.spans[parent][4] == self.main_thread
                and step_span[1] <= start <= step_span[2]
            ):
                total += end - start
        return total


def _covered(start: float, end: float, spans: list) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    covered = 0.0
    reach = start
    for s in sorted(spans, key=lambda s: s[1]):
        lo, hi = max(s[1], reach), min(s[2], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
