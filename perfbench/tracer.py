"""Span tracer installed from outside the package for traced runs.

``Tracer.install`` wraps every public module-level function of each
layer module and the arithmetic dunders of ``QPoly``, then rebinds every
name in every ``hecke_ribbon.*`` namespace (and in module-level dicts
such as ``verify.CERTIFICATES``) that still points at an original,
because ``series.py`` and ``verify.py`` import functions by name.

Every wrapped call is a span (name, start, end, parent).  A span's self
time is its duration minus the durations of its child spans; it is
worked out as each span closes and summed per span name, and a layer's
self time is the sum over its names.  Spans up to ``KEEP_DEPTH`` levels
deep (the certificate runs of a sweep; a spot-check query and the layer
calls it makes) are kept in memory and handed over at the end with the
per-name totals; deeper ones, and the millions of ``QPoly`` operations
of one sweep, live on only in those totals, so memory stays bounded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("qpoly", "linalg", "shapes", "groups", "tableaux", "modules", "series", "demazure", "verify")
QPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "exact_div")
# the lru_caches whose hit ratios are reported, as "module.function"
CACHES = (
    "qpoly.q_factorial",
    "qpoly.q_binomial",
    "series._conversion",
    "series._shuffle_f",
    "series._h_splits",
    "shapes.bracket_set",
    "shapes.diagram",
    "groups._enumerate",
    "groups._descent_buckets",
    "groups.longest_element",
    "groups.diagram_automorphism",
    "modules.build_p",
    "demazure._bar_images",
)
KEEP_DEPTH = 2


def package_modules() -> dict[str, object]:
    return {n: m for n, m in sys.modules.items() if n == "hecke_ribbon" or n.startswith("hecke_ribbon.")}


def rebind(replace: dict[int, object]) -> None:
    """Point every package-level name and dict value that refers to an
    object whose id is a key of ``replace`` at its replacement."""
    for mod in package_modules().values():
        for name, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, name, replace[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        value[key] = replace[id(item)]


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list = []
        self._stack: list[list] = []
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def wrap(self, fn, name: str, keep: bool = True):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            frame = [0.0, -1]  # child seconds, index in spans
            if keep and depth < KEEP_DEPTH:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if depth:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    spans[frame[1]] = (name, start, end, stack[-1][1] if depth else -1)

        return traced

    def _sized(self, fn, counter: str):
        """Add the length of each result to a counter."""
        counts = self.counts

        @functools.wraps(fn)
        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[counter] += len(out)
            return out

        return sized

    def _sized_on_miss(self, cached, counter: str):
        """Add the length of each result the cache had to compute."""
        counts = self.counts

        def on_miss(*args):
            misses = cached.cache_info().misses
            out = cached(*args)
            if cached.cache_info().misses != misses:
                counts[counter] += len(out)
            return out

        return on_miss

    def install(self) -> None:
        mods = package_modules()
        for key in CACHES:
            layer, fname = key.split(".", 1)
            fn = getattr(mods.get("hecke_ribbon." + layer), fname, None)
            if hasattr(fn, "cache_info"):
                self._caches[key] = fn
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods.get("hecke_ribbon." + layer)
            if mod is None:
                continue
            for name, fn in _public_functions(mod):
                inner = fn
                if (layer, name) in (("tableaux", "standard_tableaux"), ("tableaux", "semistandard_tableaux")):
                    inner = self._sized(fn, "tableaux.tableaux_enumerated")
                replace[id(fn)] = self.wrap(inner, f"{layer}.{name}")
        if "groups._enumerate" in self._caches:
            cached = self._caches["groups._enumerate"]
            replace[id(cached)] = self._sized_on_miss(cached, "groups.elements_enumerated")
        rebind(replace)

        qpoly = mods["hecke_ribbon.qpoly"].QPoly
        for op in QPOLY_OPS:
            if op in vars(qpoly):
                setattr(qpoly, op, self.wrap(vars(qpoly)[op], f"qpoly.QPoly.{op}", keep=False))
        module_cls = getattr(mods.get("hecke_ribbon.modules"), "HeckeModule", None)
        if module_cls is not None:
            init = module_cls.__init__
            counts = self.counts

            def counted_init(obj, *args, **kwargs):
                counts["modules.modules_built"] += 1
                init(obj, *args, **kwargs)

            module_cls.__init__ = counted_init
        # cache traffic counts from here on
        for key, fn in self._caches.items():
            info = fn.cache_info()
            self._cache_start[key] = (info.hits, info.misses)

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a span of the benchmark's own."""
        return self.wrap(fn, name)(*args)

    def summary(self) -> dict:
        """Per span name [calls, self seconds], the counters, cache
        [hits, misses] since install, and the kept spans."""
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            hits, misses = self._cache_start[key]
            caches[key] = [info.hits - hits, info.misses - misses]
        return {
            "by_name": {name: [self.calls[name], self.self_s[name]] for name in sorted(self.calls)},
            "counts": dict(self.counts),
            "caches": caches,
            "spans": [s for s in self.spans if s is not None],
        }
