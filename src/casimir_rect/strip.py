"""Infinite-strip scaling functions for open-open boundary conditions.

The strip limit of the Casimir potential and force per unit length is given
by one-dimensional frequency integrals,

    theta_oo(x)    = -(1/2pi) Int_0^inf dw log(1 + r(w) e^{-2 g(w)}),
    vartheta_oo(x) = -(1/pi)  Int_0^inf dw g(w) / (1 + e^{2 g(w)} / r(w)),

with g = sqrt(x^2 + w^2) and r = (g - x)/(g + x).  The ratio r is evaluated
through ratio-of-squares identities so neither sign of x loses digits, and
the frequency is mapped through w = c sinh(u) to concentrate nodes near the
integrable log endpoint that develops for x < 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import quad
from .quad import QuadratureSpec

__all__ = ["decay_factor", "theta_oo", "vartheta_oo"]

STRIP_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13)


def decay_factor(w: np.ndarray, x: float) -> np.ndarray:
    """B = r(w) exp(-2 g) with r = (g-x)/(g+x) in cancellation-free form.

    (g-x)(g+x) = w^2 turns the ratio into w^2/(g+x)^2 for x >= 0 and
    (g-x)^2/w^2 for x < 0.
    """
    g = np.hypot(w, x)
    if x >= 0.0:
        ratio = (w / (g + x)) ** 2
    else:
        ratio = ((g - x) / w) ** 2
    return ratio * np.exp(-2.0 * g)


def _strip_integral(x: float, integrand) -> float:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    scale = max(1.0, abs(x))
    w_max = abs(x) + 27.0
    u_max = math.asinh(w_max / scale)

    def transformed(u: np.ndarray) -> np.ndarray:
        w = scale * np.sinh(u)
        return integrand(w) * scale * np.cosh(u)

    return quad.integrate_finite(transformed, 0.0, u_max, STRIP_SPEC)


def theta_oo(x: float) -> float:
    """Strip Casimir potential scaling function; theta_oo(0) = -pi/48."""

    def integrand(w: np.ndarray) -> np.ndarray:
        return np.log1p(decay_factor(w, x))

    return -_strip_integral(x, integrand) / (2.0 * math.pi)


def vartheta_oo(x: float) -> float:
    """Strip Casimir force scaling function; vartheta_oo(0) = -pi/48."""

    def integrand(w: np.ndarray) -> np.ndarray:
        b = decay_factor(w, x)
        return np.hypot(w, x) * b / (1.0 + b)

    return -_strip_integral(x, integrand) / math.pi
