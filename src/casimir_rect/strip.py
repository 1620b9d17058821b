"""Infinite-strip scaling functions for open-open boundary conditions.

The strip limit of the Casimir potential and force per unit length is given
by one-dimensional frequency integrals,

    theta_oo(x)    = -(1/2pi) Int_0^inf dw log(1 + r(w) e^{-2 g(w)}),
    vartheta_oo(x) = -(1/pi)  Int_0^inf dw g(w) / (1 + e^{2 g(w)} / r(w)),

with g = sqrt(x^2 + w^2) and r = (g - x)/(g + x).  The ratio r is evaluated
through ratio-of-squares identities so neither sign of x loses digits, and
the frequency is mapped through w = c sinh(u) to concentrate nodes near the
integrable log endpoint that develops for x < 0.  Both functions take one
x or a sequence; the integrals of a sequence run as one lockstep quadrature
(quad.integrate_lockstep), each bit for bit its x alone.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from . import quad
from .quad import QuadratureSpec

__all__ = ["decay_factor", "theta_oo", "vartheta_oo"]

STRIP_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13)


def decay_factor(w: np.ndarray, x) -> np.ndarray:
    """B = r(w) exp(-2 g) with r = (g-x)/(g+x) in cancellation-free form.

    (g-x)(g+x) = w^2 turns the ratio into w^2/(g+x)^2 for x >= 0 and
    (g-x)^2/w^2 for x < 0.  x is one abscissa, or one per node of w.
    """
    g = np.hypot(w, x)
    pos = x >= 0.0
    return (np.where(pos, w, g - x) / np.where(pos, g + x, w)) ** 2 * np.exp(-2.0 * g)


def _strip_integral(x, integrand, scale: float):
    """-Int_0^{|x|+27} integrand(w, x) dw / scale through w = c sinh(u), c = max(1, |x|);
    x is a float, or a sequence giving a list from one lockstep."""
    xs = [x] if isinstance(x, Real) else list(x)
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"x must be finite, got {x}")
    c = [max(1.0, abs(v)) for v in xs]
    ends = [math.asinh((abs(v) + 27.0) / cv) for v, cv in zip(xs, c)]
    xa, ca = np.array(xs, dtype=float), np.array(c)

    def mapped(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        cr = ca[rows]
        return integrand(cr * np.sinh(u), xa[rows]) * cr * np.cosh(u)

    # at |x| near the largest double, g and B overflow; the quadrature raises
    # naming the non-finite panel, and numpy's warnings would only repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        integrals = quad.integrate_lockstep(mapped, [0.0] * len(xs), ends, STRIP_SPEC)
    values = [-v / scale for v in integrals]
    return values[0] if isinstance(x, Real) else values


def theta_oo(x):
    """Strip Casimir potential scaling function; theta_oo(0) = -pi/48."""

    def integrand(w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.log1p(decay_factor(w, x))

    return _strip_integral(x, integrand, 2.0 * math.pi)


def vartheta_oo(x):
    """Strip Casimir force scaling function; vartheta_oo(0) = -pi/48."""

    def integrand(w: np.ndarray, x: np.ndarray) -> np.ndarray:
        b = decay_factor(w, x)
        return np.hypot(w, x) * b / (1.0 + b)

    return _strip_integral(x, integrand, math.pi)
