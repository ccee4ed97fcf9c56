"""Per-layer tracing from outside the package: wrap, count, subtract.

:class:`Tracer` wraps the public functions of every supermod module (the
names in its ``__all__``, and the public methods and arithmetic operators of
the classes listed there).  Each wrapped call is a span of its module's
layer.  A span's self time is its duration minus the time of the spans it
encloses, so the layers' self times add up to the time spent in
``cli.main``.  Functions are rebound in every module namespace that imported
them (``analysis.g_act`` and ``cli.g_act`` as well as ``functors.g_act``);
methods are patched on their class.  :meth:`Tracer.uninstall` restores every
original object.

``Scalar`` operations are leaves that run millions of times, so they are
aggregated into counters instead of spans; a scalar operation called from
inside another one is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "LAYERS", "PER_LAYER_METRICS"]

#: the package modules, top to bottom
LAYERS = ("cli", "analysis", "functors", "morphisms", "dmodules", "weyl",
          "liealg", "scalars")

_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
              "__eq__"}
_SCALAR_BINARY = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__eq__"}
_SCALAR_UNARY = {"__neg__", "__pow__"}
_SCALAR_LEAVES = _SCALAR_BINARY | _SCALAR_UNARY | {
    "__hash__", "render", "specialize", "as_fraction", "from_rational",
    "parameter", "parse"}

#: (name, unit, better); a run with --trace 1 reports exactly these
PER_LAYER_METRICS = [
    ("scalars.ops", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("scalars.mixed_ring_share", "ratio", "lower"),
    ("scalars.rational_share", "ratio", "higher"),
    ("scalars.max_terms", "count", "lower"),
    ("dmodules.act_t.calls", "count", "lower"),
    ("dmodules.act_D.calls", "count", "lower"),
    ("dmodules.self_s", "s", "lower"),
    ("functors.g_act.calls", "count", "lower"),
    ("functors.g_act.self_s", "s", "lower"),
    ("functors.g_act.token_repeat_share", "ratio", "lower"),
    ("functors.superize_act.calls", "count", "lower"),
    ("functors.superize_act.self_s", "s", "lower"),
    ("functors.self_s", "s", "lower"),
    ("morphisms.apply_sigma_b.calls", "count", "lower"),
    ("morphisms.self_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.useful_ratio", "ratio", "higher"),
    ("weyl.calls", "count", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("liealg.bracket.calls", "count", "lower"),
    ("liealg.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # one [child seconds] per open span
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.in_scalar = False
        self.scalar_ops = 0
        self.scalar_mixed = 0
        self.scalar_rational = 0
        self.scalar_max_terms = 0
        # g_act decomposed into (generator, token) applications per handle
        self.applications = 0
        self.repeats = 0
        self.seen: dict[int, tuple[object, set]] = {}
        # span_probe: g_act calls made inside it, and the ranks it reached
        self.probe_depth = 0
        self.probe_g_acts = 0
        self.probe_ranks = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        modules = {name: importlib.import_module(f"supermod.{name}")
                   for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    wrapped = (self._scalar_leaf(obj, name) if layer == "scalars"
                               else self._span(layer, name, obj))
                    replaced[id(obj)] = (obj, wrapped)
        # a module's public classes include subclasses not listed in __all__
        for cls in _subclasses(modules["dmodules"].DModule):
            self._wrap_class("dmodules", cls)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        if any(owner is cls for owner, _, _ in self._patches):
            return
        for name, raw in list(vars(cls).items()):
            if layer == "scalars":
                if name not in _SCALAR_LEAVES:
                    continue
            elif name.startswith("_") and name not in _OPERATORS:
                continue
            kind = type(raw)
            func = raw.__func__ if kind in (staticmethod, classmethod) else raw
            if not callable(func):
                continue
            wrapped = (self._scalar_leaf(func, name) if layer == "scalars"
                       else self._span(layer, name, func))
            self._patch(cls, name, kind(wrapped) if kind in (staticmethod, classmethod)
                        else wrapped)

    # ------------------------------------------------------------------
    # spans

    def begin_item(self) -> None:
        """Forget per-call state: every CLI call builds its handles afresh."""
        self.seen.clear()

    def _span(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        is_g_act = qual == "functors.g_act"
        is_probe = qual == "analysis.span_probe"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_scalar:
                return fn(*args, **kwargs)
            if is_g_act:
                tracer._count_g_act(*args[:3])
            elif is_probe:
                tracer.probe_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                tracer.calls[qual] += 1
                tracer.self_s[qual] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_s += duration
                if is_probe:
                    tracer.probe_depth -= 1
            if is_probe:
                tracer.probe_ranks += result.rank
            return result

        return wrapper

    def _count_g_act(self, handle, g, v) -> None:
        if self.probe_depth:
            self.probe_g_acts += 1
        entry = self.seen.get(id(handle))
        if entry is None or entry[0] is not handle:
            entry = self.seen[id(handle)] = (handle, set())
        pairs = entry[1]
        for gen in g._terms:
            for tok in v._terms:
                self.applications += 1
                if (gen, tok) in pairs:
                    self.repeats += 1
                else:
                    pairs.add((gen, tok))

    # ------------------------------------------------------------------
    # scalar leaves

    def _scalar_leaf(self, fn, name: str):
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        binary = name in _SCALAR_BINARY
        counted = binary or name in _SCALAR_UNARY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_scalar:
                return fn(*args, **kwargs)
            if counted:
                tracer._count_op(args, binary)
            tracer.in_scalar = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                tracer.in_scalar = False
                tracer.self_s["scalars"] += duration
                tracer.calls["scalars"] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_s += duration

        return wrapper

    def _count_op(self, args, binary: bool) -> None:
        a = args[0]
        self.scalar_ops += 1
        terms = len(a._num) + len(a._den)
        names = a._names
        if binary:
            b = args[1]
            if hasattr(b, "_names"):
                terms = max(terms, len(b._num) + len(b._den))
                other = b._names
            else:
                other = ()
            if names != other:
                self.scalar_mixed += 1
            elif not names:
                self.scalar_rational += 1
        elif not names:
            self.scalar_rational += 1
        if terms > self.scalar_max_terms:
            self.scalar_max_terms = terms

    # ------------------------------------------------------------------
    # totals

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, seconds in self.self_s.items():
            out[qual.split(".", 1)[0]] += seconds
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(n for qual, n in self.calls.items()
                   if qual.split(".", 1)[0] == layer)

    def counters(self) -> dict[str, float]:
        """Totals since construction (divide by the passes for per-pass values)."""
        layer_self = self.layer_self()
        calls = self.calls
        return {
            "scalars.ops": self.scalar_ops,
            "scalars.self_s": layer_self["scalars"],
            "scalars.mixed_ring_share": _share(self.scalar_mixed, self.scalar_ops),
            "scalars.rational_share": _share(self.scalar_rational, self.scalar_ops),
            "scalars.max_terms": self.scalar_max_terms,
            "dmodules.act_t.calls": calls["dmodules.act_t"],
            "dmodules.act_D.calls": calls["dmodules.act_D"],
            "dmodules.self_s": layer_self["dmodules"],
            "functors.g_act.calls": calls["functors.g_act"],
            "functors.g_act.self_s": self.self_s["functors.g_act"],
            "functors.g_act.token_repeat_share": _share(self.repeats, self.applications),
            "functors.superize_act.calls": calls["functors.superize_act"],
            "functors.superize_act.self_s": self.self_s["functors.superize_act"],
            "functors.self_s": layer_self["functors"],
            "morphisms.apply_sigma_b.calls": calls["morphisms.apply_sigma_b"],
            "morphisms.self_s": layer_self["morphisms"],
            "analysis.calls": self.layer_calls("analysis"),
            "analysis.self_s": layer_self["analysis"],
            "analysis.useful_ratio": _share(self.probe_ranks, self.probe_g_acts),
            "weyl.calls": self.layer_calls("weyl"),
            "weyl.self_s": layer_self["weyl"],
            "liealg.bracket.calls": calls["liealg.bracket"],
            "liealg.self_s": layer_self["liealg"],
            "cli.self_s": layer_self["cli"],
        }


#: counters that are not divided by the pass count: shares and maxima
RATIOS = {"scalars.mixed_ring_share", "scalars.rational_share", "scalars.max_terms",
          "functors.g_act.token_repeat_share", "analysis.useful_ratio"}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
