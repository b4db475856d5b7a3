"""Per-layer spans around mexpart's public functions, installed from outside.

``Tracer.install`` replaces every public function of the six modules
(``partitions``, ``families``, ``bijections``, ``qseries``, ``oracle``,
``cli``) at each name its callers look up: the module attributes, the
package attributes and the entries of module-level dicts such as
``cli._MAPS``.  The text methods and constructors of the three object
classes are patched on the classes themselves.

A timed function records a span: its inclusive time, and its self time,
which is the inclusive time minus that of the timed spans it caused.
Spans are aggregated in memory per function and per layer.  Functions
called around a million times per run (``is_member``, ``mex_sequence``,
``mex``, ``has_no_gaps`` and the constructors) are only counted, so their
time stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("partitions", "families", "bijections", "qseries", "oracle", "cli")
COUNTED = frozenset({"is_member", "mex_sequence", "mex", "has_no_gaps"})
OBJECT_CLASSES = {"Partition": "partitions", "Overpartition": "families", "ColoredPartition": "families"}
ENUMERATION = frozenset({"enumerate_family", "count_family"})


def _progression_ops(a: int, step: int, degree: int) -> int:
    """Coefficient additions of one poch_inv / poch_distinct pass."""
    return sum(degree - e + 1 for e in range(a, degree + 1, step))


def _lines(stdin) -> int:
    if stdin is None:
        return 0
    if isinstance(stdin, str):
        return len(stdin.splitlines())
    return len(stdin)


class Tracer:
    """Span and counter aggregates for one traced job."""

    def __init__(self, trace_memory: bool):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peak_mem_bytes = 0
        self.trace_memory = trace_memory
        self._stack: list[float] = []
        self._enum_depth = 0
        self._memory_seen: set = set()
        self._undo: list = []
        self.layer_of: dict[str, str] = {}

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, name: str, fn, enter=None, leave=None):
        self.layer_of[name] = layer
        stack, perf = self._stack, time.perf_counter
        calls, inclusive, self_time, layer_self = self.calls, self.inclusive, self.self_time, self.layer_self

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            stack.append(0.0)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf() - start
                own = elapsed - stack.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += own
                layer_self[layer] += own
                if stack:
                    stack[-1] += elapsed
                if leave is not None:
                    leave(args, result)

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _constructor(self, cls_name: str, init):
        counts, tracer = self.counts, self

        def __init__(obj, *args, **kwargs):
            counts[cls_name] += 1
            if tracer._enum_depth:
                counts["generated"] += 1
            init(obj, *args, **kwargs)

        return functools.update_wrapper(__init__, init)

    # -- per-function accounting -------------------------------------------

    def _enter_enumeration(self, args):
        # Only the first call per (family kind, weight) is memory-traced: it
        # is the one that fills the package's caches.  Tracing the warm
        # repeats too would make the traced run of ``counts`` about 8x slower.
        key = (args[0].kind, args[1])
        if self._enum_depth == 0 and self.trace_memory and key not in self._memory_seen:
            self._memory_seen.add(key)
            tracemalloc.start()
        self._enum_depth += 1

    def _leave_enumeration(self, args, result):
        self._enum_depth -= 1
        if self._enum_depth == 0 and tracemalloc.is_tracing():
            self.peak_mem_bytes = max(self.peak_mem_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _hooks(self, name: str):
        counts = self.counts
        if name in ENUMERATION:
            def leave(args, result):
                self._leave_enumeration(args, result)
                if name == "enumerate_family" and result is not None:
                    counts["kept"] += len(result)
            return self._enter_enumeration, leave
        if name in ("poch_inv", "poch_distinct"):
            def leave(args, result):
                counts["coeff_ops"] += _progression_ops(*args[:3])
            return None, leave
        if name == "series_mul":
            def leave(args, result):
                n = args[0].degree
                counts["coeff_ops"] += 2 * sum(n - i + 1 for i, c in enumerate(args[0].coeffs) if c)
            return None, leave
        if name in ("verify_counts", "verify_roundtrips"):
            def leave(args, result):
                if result is not None:
                    counts["checks"] += len(result.checks)
            return None, leave
        if name == "run":
            def leave(args, result):
                counts["lines_in"] += _lines(args[1] if len(args) > 1 else None)
                if result is not None:
                    out = result[1]
                    counts["lines_out"] += out.count("\n")
                    counts["bytes_out"] += len(out.encode())
            return None, leave
        return None, None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((functools.partial(setattr, owner), attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if name in COUNTED:
                    replacement[id(fn)] = self._counted(name, fn)
                else:
                    replacement[id(fn)] = self._span(layer, name, fn, *self._hooks(name))
        methods = set()
        for cls_name, layer in OBJECT_CLASSES.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__init__", self._constructor(cls_name, cls.__dict__["__init__"]))
            self._patch(cls, "text", self._span(layer, f"{cls_name}.text", cls.__dict__["text"]))
            parse = cls.__dict__["from_text"].__func__
            methods.add(parse)
            self._patch(cls, "from_text", classmethod(self._span(layer, f"{cls_name}.from_text", parse)))

        def swap(value):
            if callable(value) and id(value) in replacement:
                return replacement[id(value)]
            if getattr(value, "__func__", None) in methods:  # a bound classmethod held in a table
                return getattr(value.__self__, value.__func__.__name__)
            return value

        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not value:
                    self._patch(module, attr, new)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        new = swap(entry)
                        if new is not entry:
                            self._patch(value, key, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, attr, original = self._undo.pop()
            setter(attr, original)

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
            "peak_mem_bytes": self.peak_mem_bytes,
            "layer_of": dict(self.layer_of),
        }


BIJECTIONS = {
    "t5": "mex_forward",
    "t5inv": "mex_inverse",
    "odd": "odd_forward",
    "oddinv": "odd_inverse",
    "even": "even_forward",
    "eveninv": "even_inverse",
}


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one job's ``aggregates()``.

    A layer or function the workload never calls reads 0.
    """
    calls, inclusive, self_time = agg["calls"], agg["inclusive"], agg["self_time"]
    count = agg["counts"].get

    def per_call_us(*names):
        n = sum(calls.get(name, 0) for name in names)
        return 1e6 * sum(inclusive.get(name, 0.0) for name in names) / n if n else 0.0

    def layer(name):
        return agg["layer_self"].get(name, 0.0)

    generated = count("generated", 0)
    metrics = {
        "families.enumerate_s": (sum(self_time.get(name, 0.0) for name in ENUMERATION), "s"),
        "families.generated": (generated, "count"),
        "families.kept": (count("kept", 0), "count"),
        "families.kept_ratio": (count("kept", 0) / generated if generated else 0.0, "ratio"),
        "families.is_member_calls": (count("is_member", 0), "count"),
        "families.parse_us": (per_call_us(*(f"{c}.from_text" for c in OBJECT_CLASSES)), "us"),
        "families.text_us": (per_call_us(*(f"{c}.text" for c in OBJECT_CLASSES)), "us"),
        "families.peak_mem_mb": (agg["peak_mem_bytes"] / 1e6, "MB"),
    }
    for short, name in BIJECTIONS.items():
        metrics[f"bijections.{short}_us"] = (per_call_us(name), "us")
    metrics.update({
        "bijections.self_s": (layer("bijections"), "s"),
        "bijections.calls": (
            sum(n for name, n in calls.items() if agg["layer_of"].get(name) == "bijections"),
            "count",
        ),
        "partitions.conjugate_us": (per_call_us("conjugate"), "us"),
        "partitions.glaisher_us": (per_call_us("glaisher_merge", "glaisher_split"), "us"),
        "partitions.oplus_us": (per_call_us("oplus"), "us"),
        "partitions.mex_sequence_calls": (count("mex_sequence", 0), "count"),
        "partitions.constructed": (count("Partition", 0), "count"),
        "qseries.poch_inv_s": (inclusive.get("poch_inv", 0.0), "s"),
        "qseries.series_mul_s": (inclusive.get("series_mul", 0.0), "s"),
        "qseries.poch_distinct_s": (inclusive.get("poch_distinct", 0.0), "s"),
        "qseries.gf_pmex_s": (inclusive.get("gf_pmex", 0.0), "s"),
        "qseries.coeff_ops": (count("coeff_ops", 0), "count"),
        "oracle.self_s": (layer("oracle"), "s"),
        "oracle.checks": (count("checks", 0), "count"),
        "cli.self_s": (layer("cli"), "s"),
        "cli.lines_in": (count("lines_in", 0), "count"),
        "cli.lines_out": (count("lines_out", 0), "count"),
        "cli.bytes_out": (count("bytes_out", 0), "bytes"),
    })
    return metrics
