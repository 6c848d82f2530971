"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps, in every module of a layer, each public function
defined there and each public method of each public class defined there,
plus the arithmetic methods of ``GaussianRational``.  A function is rebound
both on its own module and on every ``superrep`` module that imports it by
name, so a call from ``superrep.crossed`` into ``ue_multiply`` still counts
for the enveloping layer.  No private attribute of the program is read or
patched, so the counters survive any change behind the public names.

Each call is one span: (span id, parent span id, op id, function id, start
ns, end ns), timed on the thread's CPU clock like the end-to-end figures.
Spans stay in memory, eight bytes per field, and are written out when the
run ends.  A span's self time is its duration minus the
durations of its direct child spans; a layer's self time is the sum over its
functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
from array import array
from time import thread_time_ns

# layer -> modules whose public names belong to it
LAYERS = {
    "scalars": ("superrep.scalars",),
    "superalgebra": ("superrep.superalgebra",),
    "enveloping": ("superrep.enveloping",),
    "groups": ("superrep.groups",),
    "functions": ("superrep.functions",),
    "crossed": ("superrep.crossed",),
    "reps": ("superrep.reps",),
    "dsl": ("superrep.dsl", "superrep.catalog"),
    "cli": ("superrep.cli",),
}

SCALAR_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)

SPAN_FIELDS = ("span", "parent", "op", "function", "start_ns", "end_ns")

# named per-function metrics, reported next to every layer's totals
NAMED_CALLS = (
    "enveloping.normal_form", "enveloping.ue_multiply", "enveloping.apply_auto",
    "groups.ad_point", "functions.l1_bound", "functions.fourier_at",
    "crossed.xp_multiply", "crossed.xp_star", "reps.rep_hat", "reps.validate_rep",
)
NAMED_SELF = (
    "groups.validate_pair", "reps.prop33_bound", "reps.validate_rep", "dsl.parse",
    "cli.main",
)
# metric prefix -> traced function, where the function is a method
METHODS = {"groups.ad_point": "groups.Supergroup.ad_point"}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name in NAMED_CALLS]
    out += [(f"{name}.self_s", "s") for name in NAMED_SELF]
    out += [("dsl.parse_bytes", "bytes"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")
        self.parse_bytes = 0
        self.op = -1  # -1 while setting up
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self._span_ids = itertools.count()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        span_ids, tracer = self._span_ids, self

        def traced(*args, **kwargs):
            sid = next(span_ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, thread_time_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = thread_time_ns()
                stack.pop()
                duration = end - frame[1]
                calls[fid] += 1
                self_ns[fid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans.extend((sid, parent, tracer.op, fid, frame[1], end))

        return traced

    def install(self) -> None:
        layer_modules = [(layer, importlib.import_module(name))
                         for layer, names in LAYERS.items() for name in names]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "superrep" or name.startswith("superrep.")]
        rebind = {}  # id(original) -> wrapper
        for layer, module in layer_modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    rebind[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, module.__name__ == "superrep.scalars")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in rebind:
                    setattr(module, attr, rebind[id(obj)])
        self._count_parse_bytes(importlib.import_module("superrep.dsl"), modules)

    def _wrap_class(self, cls, layer: str, arithmetic: bool) -> None:
        names = [n for n in vars(cls) if not n.startswith("_")]
        if arithmetic:
            names += [n for n in SCALAR_ARITHMETIC if n in vars(cls)]
        for attr in names:
            raw = inspect.getattr_static(cls, attr)
            label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, label)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, label)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, label))

    def _count_parse_bytes(self, dsl, modules) -> None:
        traced_parse = dsl.parse

        def parse(source, *args, **kwargs):
            self.parse_bytes += len(source.encode("utf-8"))
            return traced_parse(source, *args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is traced_parse:
                    setattr(module, attr, parse)

    # -- results ------------------------------------------------------------

    def function_totals(self) -> dict:
        return {name: {"calls": c, "self_s": ns / 1e9}
                for name, c, ns in zip(self.names, self.calls, self.self_ns)}

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio."""
        totals = self.function_totals()
        out = {}
        for layer in LAYERS:
            mine = [v for k, v in totals.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(v["calls"] for v in mine)
            out[f"{layer}.self_s"] = sum(v["self_s"] for v in mine)
        for name in NAMED_CALLS:
            out[f"{name}.calls"] = totals[METHODS.get(name, name)]["calls"]
        for name in NAMED_SELF:
            out[f"{name}.self_s"] = totals[METHODS.get(name, name)]["self_s"]
        out["dsl.parse_bytes"] = self.parse_bytes
        return out

    def write(self, spans_path: str, legend_path: str) -> None:
        import numpy as np

        np.save(spans_path, np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6))
        with open(legend_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "functions": self.names,
                       "totals": self.function_totals()}, fh, indent=1)
            fh.write("\n")


def layer_table(metrics: dict) -> str:
    """Plain-text per-layer table: calls and self time."""
    rows = [f"{'layer':<14}{'calls':>12}{'self_s':>12}"]
    for layer in LAYERS:
        rows.append(f"{layer:<14}{metrics[layer + '.calls']:>12d}"
                    f"{metrics[layer + '.self_s']:>12.4f}")
    return "\n".join(rows) + "\n"
