"""In-memory span tracing of casimir-rect's layers, from outside the package.

installed() replaces each layer's public functions with wrappers, in the
module namespaces where their callers look them up, and puts the originals
back on exit, so no source file of the package changes.  Every wrapped call
records a span (name, start, end, parent) in memory; the caller writes the
list out when the run ends.
Cached reads are only counted, and the memoized functions' cache_info() is
read from the unwrapped originals.

A span's self time is its duration minus the part of it covered by its
child spans.  The quadrature wraps each integrand it is given in a
"quad.integrand" span, so quad self time is the adaptive bookkeeping alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

INTEGRAND = "quad.integrand"
QUAD_ENTRIES = ("integrate_finite", "integrate_semi_infinite", "integrate_sqrt_singularity")

# (module, attribute) pairs traced as spans named "<layer>.<function>"; a
# function imported by name into another module is wrapped there as well.
SPANNED = (
    ("roots", "find_zero"),
    ("weights", "weight_v"),
    ("strip", "theta_oo"),
    ("strip", "vartheta_oo"),
    ("sigma", "amplitude"),
    ("sigma", "Psi"),
    ("sigma", "psi_strip"),
    ("casimir", "theta_sc"),
    ("casimir", "integral_I1"),
    ("casimir", "integral_I2"),
    ("casimir", "x_dtheta_sc"),
)
# span name -> the argument whose distinct values are counted
DISTINCT = {"weights.weight_v": lambda mu, x, *rest: x}
# memoized functions: reads counted at their call sites, cache_info() reported
CACHED = {
    "roots.zero_cached": (("roots", "zero_cached"),),
    "weights.weight_cached": (("weights", "weight_cached"), ("sigma", "weight_cached")),
    "casimir.theta_sc": (),
    "casimir.theta_volume_rho1": (),
    "sigma.enumerate_sets": (),
}


class Tracer:
    """Spans of one single-threaded run, kept as [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, fn, name: str, key=None):
        """fn wrapped to record a span per call; key(*args) values are collected."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args))
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def integrand(self, f):
        """f wrapped in an integrand span that counts the nodes it is given.

        An outer quad entry point hands its vectorized integrand on to
        integrate_finite; that one is already traced and is left alone, so a
        scalar integrand counts one call per node on every path.
        """
        if getattr(f, "_gk_vectorized", False):
            return f

        def traced(x):
            # an integrand that reaches a second entry point unvectorized is
            # traced once, by the outermost wrapper
            if self.innermost() == INTEGRAND:
                return f(x)
            self.counts["quad.nodes"] += getattr(x, "size", 1)
            idx = self.open(INTEGRAND)
            try:
                return f(x)
            finally:
                self.close(idx)

        return traced

    def quad_entry(self, fn, name: str):
        traced = self.span(fn, name)

        @functools.wraps(fn)
        def entry(f, *args, **kwargs):
            return traced(self.integrand(f), *args, **kwargs)

        return entry


def _module(name: str):
    return importlib.import_module(f"casimir_rect.{name}")


def clear_caches() -> None:
    """Empty every memoized function of the loaded casimir_rect modules.

    Call it with the layers unwrapped, so each cache is reached by name.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("casimir_rect"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layers while inside; yields the unwrapped memoized functions."""
    originals = {name: getattr(_module(name.split(".")[0]), name.split(".")[1])
                 for name in CACHED}
    replaced = []

    def patch(module, attr, wrap):
        target = _module(module)
        old = getattr(target, attr)
        replaced.append((target, attr, old))
        setattr(target, attr, wrap(old))

    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        patch(module, attr, lambda fn, name=name: tracer.span(fn, name, DISTINCT.get(name)))
    for attr in QUAD_ENTRIES:
        patch("quad", attr, lambda fn, attr=attr: tracer.quad_entry(fn, f"quad.{attr}"))
    for name, sites in CACHED.items():
        for module, attr in sites:
            patch(module, attr, lambda fn, name=name: tracer.counted(fn, name))
    patch("cli", "emit_table", lambda fn: tracer.span(fn, "tables.emit_table"))
    try:
        yield originals
    finally:
        for target, attr, old in reversed(replaced):
            setattr(target, attr, old)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so
    a nested call is not counted twice.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += own[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["s"] += end - start
    return dict(out)


def quad_integrals(spans) -> int:
    """Integrals requested: quad entry spans not called by another quad entry."""
    entries = {f"quad.{attr}" for attr in QUAD_ENTRIES}
    return sum(1 for name, _, _, parent in spans
               if name in entries and (parent < 0 or spans[parent][0] not in entries))
