"""Adaptive one-dimensional quadrature on a 15-point Gauss-Kronrod rule.

Four entry points cover the integrals needed elsewhere in the package:
finite intervals with globally adaptive bisection, semi-infinite integrals
of exponentially decaying integrands via an explicit truncation point,
semi-infinite integrals whose inverse-square-root endpoint singularity has
already been removed by a substitution in the caller, and finite intervals
mapped through w = c sinh(u) to resolve a feature of width c at w = 0.

Every integrand takes a 1-D ndarray of nodes and returns an ndarray of
the same shape; a callable that only accepts scalars raises on its first
panel.  Results are deterministic: identical inputs produce bit-identical
outputs.

One adaptive loop, integrate_lockstep, serves them all.  It runs k
independent integrals in lockstep rounds: each unconverged integral keeps
its own panels, tolerance test and limits, bisects its own worst panel,
and the halves of all of them go to the integrand in one call, with an
array saying which integral each node belongs to.  integrate_finite is its
one-integral case; the sqrt-singularity and sinh-map routes have lockstep
forms for integrands that share one kernel, such as the mode weights.
Each panel's sums are taken row by row, with the same dot product as for
a panel evaluated alone: a matrix product over all rows sums in another
order and changes the last bits, so a lockstep result would no longer
equal the integral run by itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_finite",
    "integrate_lockstep",
    "integrate_semi_infinite",
    "integrate_sinh_map",
    "integrate_sinh_map_lockstep",
    "integrate_sqrt_singularity",
    "integrate_sqrt_singularity_lockstep",
]

# Kronrod-15 abscissae on [-1, 1]; odd entries are the embedded Gauss-7 nodes.
_XK = np.array([
    -0.9914553711208126392069,
    -0.9491079123427585245262,
    -0.8648644233597690727897,
    -0.7415311855993944398639,
    -0.5860872354676911302941,
    -0.4058451513773971669066,
    -0.2077849550078984676007,
    0.0,
    0.2077849550078984676007,
    0.4058451513773971669066,
    0.5860872354676911302941,
    0.7415311855993944398639,
    0.8648644233597690727897,
    0.9491079123427585245262,
    0.9914553711208126392069,
])
_WK = np.array([
    0.0229353220105292249637,
    0.0630920926299785532907,
    0.1047900103222501838399,
    0.1406532597155259187452,
    0.1690047266392679028266,
    0.1903505780647854099133,
    0.2044329400752988924142,
    0.2094821410847278280130,
    0.2044329400752988924142,
    0.1903505780647854099133,
    0.1690047266392679028266,
    0.1406532597155259187452,
    0.1047900103222501838399,
    0.0630920926299785532907,
    0.0229353220105292249637,
])
_WG = np.array([
    0.1294849661688696932706,
    0.2797053914892766679015,
    0.3818300505051189449504,
    0.4179591836734693877551,
    0.3818300505051189449504,
    0.2797053914892766679015,
    0.1294849661688696932706,
])

_MAX_DEPTH = 60
_MAX_PANELS = 20000


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive quadrature."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()


def _estimates(f, panels):
    """Gauss-Kronrod (value, error) of each (owner, a, b) panel from one call of f.

    The panel sums are one dot product per row, as for a lone panel, so
    every estimate is bit-identical to evaluating its panel by itself.
    """
    if not panels:
        return []
    mid = np.array([0.5 * (a + b) for _, a, b in panels])
    half = [0.5 * (b - a) for _, a, b in panels]
    nodes = (mid[:, None] + np.array(half)[:, None] * _XK).ravel()
    owners = np.repeat([owner for owner, _, _ in panels], _XK.size)
    y = np.asarray(f(nodes, owners), dtype=float)
    if y.shape != nodes.shape:
        raise ValueError(f"integrand returned shape {y.shape} for {nodes.shape} nodes")
    y = y.reshape(len(panels), _XK.size)
    finite = np.isfinite(y).all(axis=1)
    out = []
    for (_, a, b), h, row, ok in zip(panels, half, y, finite):
        if not ok:
            raise QuadratureError(f"non-finite integrand value in panel [{a}, {b}]")
        k15 = h * float(_WK @ row)
        g7 = h * float(_WG @ row[1::2])
        out.append((k15, abs(k15 - g7)))
    return out


def integrate_lockstep(f, a, b, spec: QuadratureSpec = DEFAULT_SPEC) -> list[float]:
    """Integrate k integrands over [a[i], b[i]], each to max(abs_tol, rel_tol*|I_i|).

    f(nodes, owners) takes a 1-D node array and the index of the integral
    each node belongs to, and returns the integrand values at the nodes.
    Each integral is globally adaptive on its own: the panel with the
    largest error estimate is bisected until the summed estimate meets the
    tolerance.  The integrals advance in lockstep, so each round evaluates
    the bisected panels of all unconverged integrals in one call of f.
    Raises QuadratureError when an integral's worst panel has reached
    _MAX_DEPTH bisections or its panel budget is spent.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if any(lo > hi for lo, hi in zip(a, b)):
        raise ValueError("integration bounds must satisfy a <= b")
    results = [0.0] * len(a)
    active = [i for i in range(len(a)) if a[i] != b[i]]
    firsts = _estimates(f, [(i, a[i], b[i]) for i in active])
    panels = {i: [(a[i], b[i], 0, val, err)] for i, (val, err) in zip(active, firsts)}
    while active:
        splits = []
        for i in active:
            own = panels[i]
            total = math.fsum(p[3] for p in own)
            toterr = math.fsum(p[4] for p in own)
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if toterr <= tol:
                results[i] = total
                continue
            worst = max(range(len(own)), key=lambda j: own[j][4])
            pa, pb, depth, _, perr = own[worst]
            if depth >= _MAX_DEPTH:
                raise QuadratureError(
                    f"adaptive depth exhausted on panel [{pa}, {pb}] "
                    f"(error estimate {perr:.3e}, requested {tol:.3e})"
                )
            if len(own) >= _MAX_PANELS:
                raise QuadratureError(
                    f"panel budget exhausted; worst panel [{pa}, {pb}] "
                    f"error {perr:.3e}"
                )
            splits.append((i, worst, pa, 0.5 * (pa + pb), pb, depth + 1))
        halves = _estimates(f, [(i, lo, hi) for i, _, pa, pm, pb, _ in splits
                                for lo, hi in ((pa, pm), (pm, pb))])
        for n, (i, worst, pa, pm, pb, depth) in enumerate(splits):
            panels[i][worst] = (pa, pm, depth, *halves[2 * n])
            panels[i].insert(worst + 1, (pm, pb, depth, *halves[2 * n + 1]))
        active = [split[0] for split in splits]
    return results


def _one(f):
    """A node-array integrand f(nodes) as the integrand of a single lockstep integral."""
    return lambda nodes, owners: f(nodes)


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol*|I|).

    The one-integral case of integrate_lockstep: each round bisects the
    worst panel and evaluates both halves in one call of f.
    """
    return integrate_lockstep(_one(f), [a], [b], spec)[0]


def _truncation_points(f, start: float, count: int, spec: QuadratureSpec) -> list[float]:
    """Per integral, a point T so that an e^{-t} tail beyond it is below abs_tol/10."""
    probes = start + np.array([0.25, 1.0, 2.0])
    owners = np.repeat(np.arange(count), probes.size)
    mags = np.abs(f(np.tile(probes, count), owners)).reshape(count, probes.size)
    return [start + max(10.0, math.log(10.0 * (float(np.max(m)) + spec.abs_tol) / spec.abs_tol))
            for m in mags]


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f, decaying at least like e^{-t}, over [a, infinity).

    The range is truncated at T = a + max(10, log(10*range/abs_tol)), with
    the range magnitude estimated from f at three probe points, then handed
    to integrate_finite.
    """
    T = _truncation_points(_one(f), a, 1, spec)[0]
    return integrate_finite(f, a, T, spec)


def integrate_sqrt_singularity_lockstep(g, x_abs: float, count: int,
                                        spec: QuadratureSpec = DEFAULT_SPEC) -> list[float]:
    """Integrate count integrands g(s, owners) over (0, infinity) in lockstep.

    The caller has already substituted t = sqrt(x^2 + s^2), so g(s) is
    regular at s = 0.  x_abs shifts the truncation points outward: in the
    substituted variable the exponential decay only sets in for s beyond
    roughly x_abs.  Each integral gets its own truncation point.
    """
    if x_abs < 0:
        raise ValueError("x_abs must be >= 0")
    upper = _truncation_points(g, x_abs, count, spec)
    return integrate_lockstep(g, [0.0] * count, upper, spec)


def integrate_sqrt_singularity(g, x_abs: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate g over (0, infinity) after a square-root substitution.

    The one-integral case of integrate_sqrt_singularity_lockstep.
    """
    return integrate_sqrt_singularity_lockstep(_one(g), x_abs, 1, spec)[0]


def _sinh_map(f, scale: float, upper: float):
    """Integrand and upper limit in u after the substitution w = scale*sinh(u)."""

    def transformed(u: np.ndarray, *owners) -> np.ndarray:
        return f(scale * np.sinh(u), *owners) * scale * np.cosh(u)

    return transformed, math.asinh(upper / scale)


def integrate_sinh_map(f, scale: float, upper: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f over [0, upper] through the substitution w = scale*sinh(u).

    Nodes crowd into the layer w < scale, so an endpoint feature of that
    width (a log singularity, a narrow spike) becomes O(1) in u.
    """
    transformed, top = _sinh_map(f, scale, upper)
    # through integrate_finite, so the benchmark's traced run, which wraps
    # that entry point, still counts the strip integrals under quad.*
    return integrate_finite(transformed, 0.0, top, spec)


def integrate_sinh_map_lockstep(f, scale: float, upper: float, count: int,
                                spec: QuadratureSpec = DEFAULT_SPEC) -> list[float]:
    """integrate_sinh_map for count integrands f(w, owners) in lockstep."""
    transformed, top = _sinh_map(f, scale, upper)
    return integrate_lockstep(transformed, [0.0] * count, [top] * count, spec)
