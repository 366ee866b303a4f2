"""Per-layer tracing of sepdist from outside the package.

``Tracer.install`` replaces each public function (those in ``__all__``)
of the layers ``symplectic``, ``states``,
``protocol``, ``montecarlo`` and ``cli`` with a wrapper that records a span,
both at its definition and at every binding made by ``from .x import``.
It also wraps the ``__post_init__`` validation of ``CovarianceMatrix``,
``SymplecticTransform`` and ``NoiseModel``, and counts the normal variates
drawn from generators made by ``numpy.random.default_rng``.  A layer or
validated class that is missing raises at install time, so that a renamed
binding cannot read as a zero cost.  ``uninstall`` puts every original back.

A span is ``(op, id, parent, name, start_ns, end_ns)``; spans of one CLI call
share ``op``.  Spans stay in memory until ``write`` saves them as JSON lines.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("symplectic", "states", "protocol", "montecarlo", "cli")

#: Dataclasses whose ``__post_init__`` validation is traced, by layer.
VALIDATED = {
    "symplectic": ("CovarianceMatrix",),
    "states": ("SymplecticTransform", "NoiseModel"),
}

_NORMAL_DRAWS = ("standard_normal", "normal", "multivariate_normal")


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the normal variates it draws."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if name not in _NORMAL_DRAWS:
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.normals += int(np.size(out))
            return out

        return counted


class Tracer:
    """Records spans around sepdist's layer boundaries while installed.

    Spans live in flat columns rather than one object each, so that a long
    traced run does not grow the garbage collector's work per call.
    """

    def __init__(self):
        self.op = 0
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.normals = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        ops, parents, names, starts, ends = self.ops, self.parents, self.names, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            names.append(name)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"sepdist.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "sepdist" or n.startswith("sepdist.")]
        for layer, module in layers.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                traced = self._wrap(f"{layer}.{name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._replace(owner, attr, traced)
            for cls_name in VALIDATED.get(layer, ()):
                cls = getattr(module, cls_name)
                name = f"{layer}.{cls_name}.__post_init__"
                self._replace(cls, "__post_init__", self._wrap(name, vars(cls)["__post_init__"]))
        default_rng = np.random.default_rng
        self._replace(
            np.random, "default_rng", lambda *a, **k: _CountingGenerator(default_rng(*a, **k), self)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self):
        """Yield ``(op, id, parent, name, start_ns, end_ns)``; parent -1 is a root span."""
        return zip(self.ops, range(len(self.names)), self.parents, self.names, self.starts, self.ends)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


class SpanTotals:
    """Per-name span counts, inclusive and self milliseconds over a set of ops."""

    def __init__(self, tracer: Tracer, ops: set[int]):
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in tracer.spans():
            if parent >= 0:
                child_ns[parent] += end - start
        self.count: dict[str, int] = defaultdict(int)
        self.inclusive_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.layer_self_ms: dict[str, float] = defaultdict(float)
        for op, span_id, _, name, start, end in tracer.spans():
            if op not in ops:
                continue
            self.count[name] += 1
            self.inclusive_ms[name] += (end - start) / 1e6
            own = (end - start - child_ns[span_id]) / 1e6
            self.self_ms[name] += own
            self.layer_self_ms[name.split(".", 1)[0]] += own
