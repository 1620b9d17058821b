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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_sinh_map",
    "integrate_sqrt_singularity",
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


def _panel(f, a: float, b: float):
    """Gauss-Kronrod estimates on [a, b] from one array evaluation of f."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _XK), dtype=float)
    if y.shape != _XK.shape:
        raise ValueError(f"integrand returned shape {y.shape} for {_XK.shape} nodes")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"non-finite integrand value in panel [{a}, {b}]")
    k15 = half * float(_WK @ y)
    g7 = half * float(_WG @ y[1::2])
    return k15, abs(k15 - g7)


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol*|I|).

    Globally adaptive: the panel with the largest error estimate is bisected
    until the summed estimate meets the tolerance.  Raises QuadratureError
    when the worst panel has reached _MAX_DEPTH bisections or the panel
    budget is spent.
    """
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    val, err = _panel(f, a, b)
    panels = [(a, b, 0, val, err)]
    while True:
        total = math.fsum(p[3] for p in panels)
        toterr = math.fsum(p[4] for p in panels)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if toterr <= tol:
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        pa, pb, depth, _, perr = panels[worst]
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"adaptive depth exhausted on panel [{pa}, {pb}] "
                f"(error estimate {perr:.3e}, requested {tol:.3e})"
            )
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"panel budget exhausted; worst panel [{pa}, {pb}] "
                f"error {perr:.3e}"
            )
        pm = 0.5 * (pa + pb)
        left = _panel(f, pa, pm)
        right = _panel(f, pm, pb)
        panels[worst] = (pa, pm, depth + 1, left[0], left[1])
        panels.insert(worst + 1, (pm, pb, depth + 1, right[0], right[1]))


def _truncation_point(f, start: float, spec: QuadratureSpec) -> float:
    """Truncation point T so that an e^{-t} tail beyond it is below abs_tol/10."""
    mags = np.abs(f(start + np.array([0.25, 1.0, 2.0])))
    range_estimate = float(np.max(mags)) + spec.abs_tol
    return start + max(10.0, math.log(10.0 * range_estimate / spec.abs_tol))


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f, decaying at least like e^{-t}, over [a, infinity).

    The range is truncated at T = a + max(10, log(10*range/abs_tol)), with
    the range magnitude estimated from f at three probe points, then handed
    to integrate_finite.
    """
    T = _truncation_point(f, a, spec)
    return integrate_finite(f, a, T, spec)


def integrate_sqrt_singularity(g, x_abs: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate g over (0, infinity) after a square-root substitution.

    The caller has already substituted t = sqrt(x^2 + s^2), so g(s) is
    regular at s = 0.  x_abs shifts the truncation point outward: in the
    substituted variable the exponential decay only sets in for s beyond
    roughly x_abs.
    """
    if x_abs < 0:
        raise ValueError("x_abs must be >= 0")
    T = _truncation_point(g, x_abs, spec)
    return integrate_finite(g, 0.0, T, spec)


def integrate_sinh_map(f, scale: float, upper: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f over [0, upper] through the substitution w = scale*sinh(u).

    Nodes crowd into the layer w < scale, so an endpoint feature of that
    width (a log singularity, a narrow spike) becomes O(1) in u.
    """

    def transformed(u: np.ndarray) -> np.ndarray:
        return f(scale * np.sinh(u)) * scale * np.cosh(u)

    return integrate_finite(transformed, 0.0, math.asinh(upper / scale), spec)
