"""Mode weights from the real-axis reduction of a counting-kernel integral.

Every zero of the dispersion function carries a weight v_mu(x), the scaled
matrix-element coefficient entering the subset amplitudes.  The weight is

    v_mu = 4 (gamma_mu - x) / (1 + x/gamma_mu^2)
           * exp[ (sigma_mu/pi) * Int_{|x|}^inf dt log(1 - (it)^2/F_mu^2) K(t) ]

where K(t) is the real reduction of the alternating counting kernel on the
upper imaginary axis,

    K(t) = (x + x^2 - t^2) / ( sqrt(t^2 - x^2) * (t cosh t + x sinh t) ).

The endpoint 1/sqrt(t^2 - x^2) singularity is removed by t = sqrt(x^2+s^2).
For mu = 1 and x < -1 the log argument is negative on the whole range; its
constant imaginary part integrates, through the counting-kernel identity
(1/pi) Int K dt = (sign x - 1)/2, to an exact overall sign flip, keeping
all arithmetic real.

Closed forms are available at x = 0 through the Euler beta function, and at
x = -1 where the first zero degenerates.

The kernel does not depend on the mode; only the log factor does.  So the
weights of many modes at one x run as one lockstep quadrature
(quad.integrate_lockstep): every mode keeps its own adaptive panels, and
each bisection round evaluates the new panels of all modes in one
integrand call, with the log factor broadcast per row.  The panel sums are
per-row dot products, so each weight is bit-identical to the weight of its
mode computed alone.  weight_cached holds v_1..v_n per x in whole blocks of
MODE_BLOCK modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import quad, roots
from .quad import QuadratureSpec
from .specialfn import euler_beta

__all__ = [
    "WeightRecord",
    "counting_integrand",
    "weight_v",
    "weight_v_special_xneg1",
    "weight_v_closed_x0",
    "weight",
    "batch_size",
    "weight_cached",
]

# Tight tolerances: weights feed amplitude products that are checked to 1e-9
# and the x = 0 closed-form comparison to 1e-11 relative.
WEIGHT_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14)


@dataclass(frozen=True)
class WeightRecord:
    """Weight value with the route that produced it."""

    mu: int
    v: float
    method: str  # contour | closed_form_x0 | special_x_neg1


def counting_integrand(t, x: float):
    """Real-axis counting kernel K(t) for t > |x| (scalar or ndarray)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= abs(x)):
        raise ValueError("counting_integrand requires t > |x|")
    return (x + x * x - t_arr * t_arr) / (
        np.sqrt(t_arr * t_arr - x * x) * (t_arr * np.cosh(t_arr) + x * np.sinh(t_arr))
    )


def _kernel_sub(s: np.ndarray, x: float) -> np.ndarray:
    """Counting kernel times dt/ds after the substitution t = sqrt(x^2+s^2).

    Evaluates (x - s^2) / (t * cosh t * (t + x tanh t)).  For x < 0 the
    factor t + x tanh t nearly cancels; it is assembled from the exact
    pieces s^2/(t+|x|) and 2|x|/(1+e^{2t}), both safe at any magnitude.
    """
    s = np.asarray(s, dtype=float)
    t = np.hypot(s, x)
    if x >= 0.0:
        d = t + x * np.tanh(t)
    else:
        d = s * s / (t - x) + (-2.0 * x) * np.exp(-2.0 * t) / (1.0 + np.exp(-2.0 * t))
    # 1/cosh(t) in overflow-safe form
    sech = 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t))
    return (x - s * s) * sech / (t * d)


def _exponent_integrals(x: float, log_factor, count: int) -> list[float]:
    """Int_0^inf log_factor(s, owners) * kernel(s) ds for count log factors at once.

    The kernel does not depend on the mode, so the count integrals share it
    and advance in lockstep through one integrand call per round; node
    placement depends on x only.  For x < -1 the kernel develops a spike of
    width ~ 2|x| e^{-|x|} at the origin (the scale of the first zero's
    decay rate); the substitution s = c sinh(v) with c set to that scale
    makes it an O(1) feature that the adaptive panels resolve at any x.
    """

    def integrand(s: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return log_factor(s, owners) * _kernel_sub(s, x)

    if x >= -1.0:
        return quad.integrate_sqrt_singularity_lockstep(integrand, abs(x), count, WEIGHT_SPEC)
    c = roots.zero_cached(1, x).gamma
    return quad.integrate_sinh_map_lockstep(integrand, c, -x + 45.0, count, WEIGHT_SPEC)


def _prefactor(zero: roots.ZeroRecord, x: float) -> float:
    g2 = zero.gamma * zero.gamma
    return 4.0 * (zero.gamma - x) * g2 / (g2 + x)


def _contour_weights(modes: tuple[int, ...], x: float) -> list[WeightRecord]:
    if 1 in modes and x == -1.0:
        raise ValueError("degenerate point; use weight_v_special_xneg1")
    zeros = [roots.zero_cached(mu, x) for mu in modes]
    # log factor log(1 + (x^2 + s^2)/phi^2) of a real zero; for the imaginary
    # first zero |1 - t^2/y^2| = (gamma^2 + s^2)/y^2, and the constant i*pi
    # branch reduces to an overall sign flip
    imaginary = np.array([not z.phi_sq > 0.0 for z in zeros])
    shift = np.array([z.gamma * z.gamma if im else x * x for z, im in zip(zeros, imaginary)])
    scale = np.array([-z.phi_sq if im else z.phi_sq for z, im in zip(zeros, imaginary)])

    def log_factor(s: np.ndarray, owners: np.ndarray) -> np.ndarray:
        ratio = (shift[owners] + s * s) / scale[owners]
        if not imaginary.any():
            return np.log1p(ratio)
        im = imaginary[owners]
        out = np.empty_like(ratio)
        out[~im] = np.log1p(ratio[~im])
        out[im] = np.log(ratio[im])
        return out

    records = []
    for mu, zero, im, integral in zip(modes, zeros, imaginary,
                                      _exponent_integrals(x, log_factor, len(modes))):
        expo = zero.sigma / math.pi * integral
        v = (-1.0 if im else 1.0) * _prefactor(zero, x) * math.exp(expo)
        records.append(WeightRecord(mu=mu, v=v, method="contour"))
    return records


def weight_v(mu, x: float):
    """Weights v_mu(x) by the contour-reduced integral route.

    mu is one mode, giving one WeightRecord, or a sequence of modes, giving
    a list of records whose integrals run side by side; each value is
    bit-identical to its mode's own.  Not defined at (mu, x) = (1, -1),
    where the first zero degenerates; use weight_v_special_xneg1 there.
    """
    if isinstance(mu, Integral):
        return _contour_weights((mu,), x)[0]
    return _contour_weights(tuple(mu), x)


def weight_v_special_xneg1() -> WeightRecord:
    """First weight at x = -1, where the integral diverges logarithmically.

    The degenerate zero at the origin leaves the finite combination
    v_1 = 12 exp[(1/pi) Int_1^inf log(t^2) K(t) dt] = 6.39303337215...
    """

    def log_factor(s: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return np.log(1.0 + s * s)  # log(t^2) with t^2 = 1 + s^2

    expo = _exponent_integrals(-1.0, log_factor, 1)[0] / math.pi
    return WeightRecord(mu=1, v=12.0 * math.exp(expo), method="special_x_neg1")


def weight_v_closed_x0(mu: int) -> WeightRecord:
    """Exact weight at x = 0: 4 F0^(1+sigma) [B(mu/2, 1/2)/(sqrt(2) pi)]^(2 sigma)."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    sigma = 1 if mu % 2 == 1 else -1
    f0 = (mu - 0.5) * math.pi
    ratio = euler_beta(mu / 2.0, 0.5) / (math.sqrt(2.0) * math.pi)
    v = 4.0 * f0 ** (1 + sigma) * ratio ** (2 * sigma)
    return WeightRecord(mu=mu, v=v, method="closed_form_x0")


def weight(mu, x: float):
    """Weights v_mu(x), dispatched per mode over the three routes.

    The closed form at x = 0, the special form for the first weight at
    x = -1, and the contour integral everywhere else, where a sequence of
    modes shares one weight_v call.  mu is one mode, giving one
    WeightRecord, or a sequence of modes, giving a list of records.
    """
    if isinstance(mu, Integral):
        return weight((mu,), x)[0]
    modes = tuple(mu)
    if x == 0.0:
        return [weight_v_closed_x0(m) for m in modes]
    special = x == -1.0
    contour = [m for m in modes if not (special and m == 1)]
    records = iter(weight_v(contour, x) if contour else ())
    return [weight_v_special_xneg1() if special and m == 1 else next(records)
            for m in modes]


MODE_BLOCK = 16  # weights are computed and cached in whole blocks of modes


def batch_size(m: int) -> int:
    """Smallest whole number of mode blocks that covers modes 1..m."""
    return MODE_BLOCK * -(-m // MODE_BLOCK)


@lru_cache(maxsize=None)
def weight_cached(x: float, n: int) -> tuple[float, ...]:
    """Memoized weights v_1..v_n(x), one batch per (x, n).

    The series, determinant and spin modules read it with n = batch_size(m)
    for their highest mode m, so they share one entry per x.  An entry
    beyond MODE_BLOCK modes extends the cached entry of MODE_BLOCK fewer
    modes, so no mode is computed twice at one x.
    """
    head = weight_cached(x, n - MODE_BLOCK) if n > MODE_BLOCK else ()
    return head + tuple(rec.v for rec in weight(range(len(head) + 1, n + 1), x))
