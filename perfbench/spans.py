"""In-memory span recording around the public functions of sconelab's layers.

A `Tracer` replaces every public module-level function of the layer modules
with a timing wrapper, in every layer namespace that binds it: the module
that defines it and each module that imports it. A span records the function
("<defining layer>.<function>"), the layer namespace the call went through
(its site), its parent span, start and end times, the execution (run id) it
belongs to and a row count for the functions that have one. Spans stay in
flat arrays until `save` writes them out at the end; `instrument` restores every
wrapped name when it exits, also on error.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.site = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.run_starts: list[int] = []
        self.counters: list[dict[str, float]] = []
        self._stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self):
        """Start a new execution; later spans and counts belong to it."""
        self.run_starts.append(len(self.name))
        self.counters.append(defaultdict(float))

    def run_range(self, run: int) -> range:
        stop = self.run_starts[run + 1] if run + 1 < len(self.run_starts) else len(self.name)
        return range(self.run_starts[run], stop)

    def add(self, key: str, value: float):
        self.counters[-1][key] += value

    def _wrap(self, fn, name_id: int, site_id: int, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.site.append(site_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.run.append(len(tracer.run_starts) - 1)
            tracer.rows.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer.rows[idx] = hook(tracer, args, result)
            return result

        return traced

    @contextmanager
    def instrument(self, modules, hooks=None):
        """Wrap the public functions of `modules` in each of their namespaces.

        `hooks` maps a span name to `hook(tracer, args, result) -> rows`,
        which may also call `tracer.add` for per-execution counts.
        """
        hooks = hooks or {}
        layer_of = {module.__name__: module.__name__.rsplit(".", 1)[-1] for module in modules}
        self.patched = []
        try:
            for module in modules:
                site_id = self._intern(layer_of[module.__name__])
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    layer = layer_of.get(obj.__module__)
                    if layer is None:
                        continue
                    name = f"{layer}.{obj.__name__}"
                    wrapped = self._wrap(obj, self._intern(name), site_id, hooks.get(name))
                    setattr(module, attr, wrapped)
                    self.patched.append((module, attr, obj))
            yield self
        finally:
            for module, attr, original in reversed(self.patched):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every name the last `instrument` wrapped is bound to its original."""
        return all(getattr(module, attr) is original for module, attr, original in self.patched)

    def self_time(self, idx: int, children: dict[int, list[int]]) -> float:
        """Span duration minus the part of its interval its child spans cover."""
        lo, hi = self.start[idx], self.end[idx]
        covered, cur_lo, cur_hi = 0.0, None, None
        for child in sorted(children.get(idx, ()), key=self.start.__getitem__):
            c_lo, c_hi = max(self.start[child], lo), min(self.end[child], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (hi - lo) - covered

    def children(self, span_range: range) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for i in span_range:
            if self.parent[i] >= 0:
                out[self.parent[i]].append(i)
        return out

    def save(self, path):
        """Write every span to an .npz file: one array per field plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            **{
                field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)
                for field in ("name", "site", "parent", "run", "start", "end", "rows")
            },
        )
