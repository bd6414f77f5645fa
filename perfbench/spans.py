"""Span tracing for the benchmark.

The tracer wraps public functions of the qpoly layers from outside: it
replaces each target in every qpoly module that holds it (and every alias
of a method in its class), records one span per call (name, start, end,
parent, request id) in flat arrays, and reduces the spans to calls and self
time per name once the run is over.  Nothing under src/ is changed.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

PACKAGE = "qpoly"


def package_modules():
    """The loaded qpoly modules, keyed by their short name ("field", ...)."""
    mods = {}
    for full, mod in list(sys.modules.items()):
        if mod is not None and (full == PACKAGE or full.startswith(PACKAGE + ".")):
            mods[full[len(PACKAGE) + 1:] or PACKAGE] = mod
    return mods


def _defined_callables(mod, keep):
    return [name for name, value in vars(mod).items()
            if not name.startswith("_") and keep(name) and callable(value)
            and not inspect.isclass(value)
            and getattr(value, "__module__", None) == mod.__name__]


# Metric name -> (layer module, attribute paths).  A callable in place of the
# paths selects them by introspection.  Method paths name the Python method
# (__mul__ for IntPoly.mul).
TARGETS = (
    ("field.poly_gcd", "field", ("poly_gcd",)),
    ("field.IntPoly.divexact", "field", ("IntPoly.divexact",)),
    ("field.IntPoly.mul", "field", ("IntPoly.__mul__",)),
    ("field.RationalFunction.add", "field", ("RationalFunction.__add__",)),
    ("field.RationalFunction.mul", "field", ("RationalFunction.__mul__",)),
    ("field.RationalFunction.truediv", "field", ("RationalFunction.__truediv__",)),
    ("field.parse", "field", lambda mod: _defined_callables(mod, lambda n: n.startswith("parse"))),
    ("series.TruncatedSeries.mul", "series", ("TruncatedSeries.__mul__",)),
    ("series.TruncatedSeries.exp", "series", ("TruncatedSeries.exp",)),
    ("series.TruncatedSeries.log", "series", ("TruncatedSeries.log",)),
    ("qkernel.q_exp_sum", "qkernel", ("q_exp_sum",)),
    ("qkernel.q_exp_product_form", "qkernel", ("q_exp_product_form",)),
    ("qkernel.quesne_series", "qkernel", ("quesne_series",)),
    ("families.q_hermite", "families", ("q_hermite",)),
    ("families.q_laguerre", "families", ("q_laguerre",)),
    ("families.q_gegenbauer_direct", "families", ("q_gegenbauer_direct",)),
    ("families.q_gegenbauer_genfun", "families", ("q_gegenbauer_genfun",)),
    ("connection.hermite_connection", "connection", ("hermite_connection",)),
    ("connection.laguerre_connection", "connection", ("laguerre_connection",)),
    ("connection.gegenbauer_connection", "connection", ("gegenbauer_connection",)),
    ("connection.gegenbauer_connection_value", "connection", ("gegenbauer_connection_value",)),
    ("connection.gegenbauer_sum_rule", "connection", ("gegenbauer_sum_rule",)),
    ("render.emit", "render", lambda mod: _defined_callables(mod, lambda n: not n.startswith("parse"))),
    ("render.parse_polynomial_json", "render", ("parse_polynomial_json",)),
    ("cli.main", "cli", ("main",)),
    ("verify.run_suite", "verify", ("run_suite",)),
)

TARGET_NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """Collects spans from the functions it wraps; single-threaded."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("I")
        self.parent = array("i")
        self.request = array("I")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request_id = 0
        self.skipped = []
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        span_name, parent, request = self.span_name, self.parent, self.request
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _patch_function(self, modules, original, traced):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def _patch_method(self, cls, meth, name):
        original = inspect.getattr_static(cls, meth)
        if not inspect.isfunction(original):
            return False
        traced = self._wrapper(original, name)
        aliases = [a for k in cls.__mro__ for a, v in vars(k).items() if v is original]
        for attr in dict.fromkeys(aliases):
            self._set(cls, attr, traced)
        return True

    def install(self, modules):
        """Wrap every target found in `modules`; record the missing ones."""
        for name, layer, paths in TARGETS:
            mod = modules.get(layer)
            if mod is None:
                self.skipped.append(name)
                continue
            if callable(paths):
                paths = paths(mod)
            found = False
            for path in paths:
                head, _, meth = path.partition(".")
                obj = getattr(mod, head, None)
                if obj is None:
                    continue
                if meth:
                    if inspect.isclass(obj) and hasattr(obj, meth) and self._patch_method(obj, meth, name):
                        found = True
                elif callable(obj):
                    self._patch_function(modules, obj, self._wrapper(obj, name))
                    found = True
            if not found:
                self.skipped.append(name)

    def uninstall(self):
        for owner, attr, value, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reduction -------------------------------------------------------

    def summary(self):
        """Per-name calls and self time, plus the per-span arrays needed for
        inclusive group times."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
        return calls, self_s, dur

    def inclusive(self, dur, prefix):
        """Wall time covered by spans whose name starts with `prefix`,
        counting nested spans of the same group once."""
        in_group = [name.startswith(prefix) for name in self.names]
        inside = array("b", bytes(len(self.start)))
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            nested = p >= 0 and (inside[p] or in_group[self.span_name[p]])
            inside[i] = nested
            if not nested and in_group[self.span_name[i]]:
                total += dur[i]
        return total
