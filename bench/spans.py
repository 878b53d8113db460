"""Spans around calls into the package's public functions.

The tracer replaces each traced function in every ``toricmult`` module that
holds it, including names one module imported from another, so a call from
``reduction`` into ``lattice.hull`` becomes a child span of the reduction
span.  Spans stay in memory as ``(name, start_ns, end_ns, parent, op)`` and
are written out when the run ends.  A span's self time is its duration minus
that of its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Public functions wrapped in spans, by module of the package.
TRACED = {
    "lattice": ("hull", "intersect_halfplanes", "lattice_points", "face_in_direction"),
    "surface": ("polygon_of", "classify", "h0"),
    "multiplication": ("check_surjectivity", "cokernel_dim"),
    "reduction": ("reduce_to_globally_generated", "sweep_cokernel"),
    "serialization": ("load_fan", "load_divisor", "sweep_rows", "write_csv"),
    "cli": ("run_cli",),
}

PACKAGE = "toricmult"


def package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _unwrapped(obj) -> list:
    out = []
    while obj is not None and obj not in out:
        out.append(obj)
        obj = getattr(obj, "__wrapped__", None) or getattr(obj, "__func__", None)
    return out


def find_caches() -> list:
    """Every functools cache reachable from the package's module namespaces,
    also on classes and behind wrappers."""
    found: dict[int, object] = {}
    for module in package_modules():
        values = list(vars(module).values())
        for value in list(values):
            if isinstance(value, type) and value.__module__ == module.__name__:
                values.extend(vars(value).values())
        for value in values:
            for obj in _unwrapped(value):
                if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)
                ):
                    found[id(obj)] = obj
    return list(found.values())


def layer_of(obj) -> str:
    return getattr(obj, "__module__", "").rsplit(".", 1)[-1]


class CacheStats:
    """Clears the package's caches and keeps their hit and miss counts."""

    def __init__(self) -> None:
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def clear(self) -> None:
        for cache in find_caches():
            info = cache.cache_info()
            self.hits[layer_of(cache)] += info.hits
            self.misses[layer_of(cache)] += info.misses
            cache.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.active = True
        self.points_enumerated = 0
        self._patched: list[tuple[object, str, object]] = []
        self._lattice_caches: list = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self._lattice_caches = [c for c in find_caches() if layer_of(c) == "lattice"]
        by_name = {m.__name__: m for m in package_modules()}
        for layer, names in TRACED.items():
            module = by_name.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in by_name.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counts_points = name == "lattice.lattice_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counts_points:
                caches = self._lattice_caches
                misses = sum(c.cache_info().misses for c in caches)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if counts_points and self.op is not None and (
                not caches or sum(c.cache_info().misses for c in caches) > misses
            ):
                self.points_enumerated += len(result)
            return result

        return wrapper

    # -- operations ------------------------------------------------------------

    def begin(self, op: int, verb: str) -> None:
        self.op = op
        self.spans.append(("op." + verb, time.perf_counter_ns(), None, -1, op))
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        index = self.stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent, op)
        self.op = None

    # -- results ---------------------------------------------------------------

    def self_ns(self, setup: bool = False) -> tuple[Counter, Counter]:
        """Self time and call count per span name, over the spans of timed
        operations, or over those of set-up (op None) when ``setup`` is true."""
        children: defaultdict[int, int] = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        own: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if (op is None) != setup:
                continue
            own[name] += end - start - children[index]
            calls[name] += 1
        return own, calls

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, op]) + "\n")
