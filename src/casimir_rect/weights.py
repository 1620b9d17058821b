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

At x = -1 the first zero degenerates to the origin and the integral
diverges logarithmically; the finite combination left over has the log
factor log(t^2) and its own prefactor.  The closed form at x = 0, through
the Euler beta function, is the only other route.

The kernel does not depend on the mode; only the log factor does.  So the
weights of many modes at one x run as one lockstep quadrature
(quad.integrate_lockstep): every mode keeps its own adaptive panels, and
each bisection round evaluates the new panels of all modes in one
integrand call, with the log factor broadcast per row.  The quadrature
sums each panel with the dot product of a lone panel (np.vecdot), so each
weight is bit-identical to the weight of its mode computed alone, the
degenerate one included.  weight_cached holds v_1..v_n per x, one batch
per entry.
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
    """Real-axis counting kernel K(t) for t > |x|, finite x (scalar or ndarray)."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > abs(x)):
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

    # where gamma_1^2 underflows (x <~ -380) or x^2 overflows (x >~ 1e154)
    # the quadrature raises naming the non-finite panel; numpy's warnings
    # would only repeat that on stderr
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if x >= -1.0:
            return quad.integrate_sqrt_singularity_lockstep(integrand, abs(x), count, WEIGHT_SPEC)
        c = roots.zero_cached(1, x).gamma
        return quad.integrate_sinh_map_lockstep(integrand, c, -x + 45.0, count, WEIGHT_SPEC)


def _prefactor(zero: roots.ZeroRecord, x: float) -> float:
    g2 = zero.gamma * zero.gamma
    return 4.0 * (zero.gamma - x) * g2 / (g2 + x)


def _contour_weights(modes: tuple[int, ...], x: float) -> list[WeightRecord]:
    zeros = [roots.zero_cached(mu, x) for mu in modes]
    # log factor log(1 + (x^2 + s^2)/phi^2) of a real zero; for the imaginary
    # first zero |1 - t^2/y^2| = (gamma^2 + s^2)/y^2, and the constant i*pi
    # branch reduces to an overall sign flip; for the degenerate one at
    # x = -1 it is log(t^2) = log(gamma^2 + s^2) with gamma = 1
    plain_log = np.array([not z.phi_sq > 0.0 for z in zeros])
    shift = np.array([z.gamma * z.gamma if pl else x * x for z, pl in zip(zeros, plain_log)])
    scale = np.array([abs(z.phi_sq) or 1.0 for z in zeros])

    def log_factor(s: np.ndarray, owners: np.ndarray) -> np.ndarray:
        ratio = (shift[owners] + s * s) / scale[owners]
        if not plain_log.any():
            return np.log1p(ratio)
        pl = plain_log[owners]
        out = np.empty_like(ratio)
        out[~pl] = np.log1p(ratio[~pl])
        out[pl] = np.log(ratio[pl])
        return out

    records = []
    for mu, zero, integral in zip(modes, zeros, _exponent_integrals(x, log_factor, len(modes))):
        if zero.phi_sq == 0.0:
            records.append(WeightRecord(mu=mu, v=12.0 * math.exp(integral / math.pi),
                                        method="special_x_neg1"))
            continue
        expo = zero.sigma / math.pi * integral
        v = (-1.0 if zero.phi_sq < 0.0 else 1.0) * _prefactor(zero, x) * math.exp(expo)
        records.append(WeightRecord(mu=mu, v=v, method="contour"))
    return records


def weight_v(mu, x: float):
    """Weights v_mu(x) by the contour-reduced integral route.

    mu is one mode, giving one WeightRecord, or a sequence of modes, giving
    a list of records whose integrals run side by side; each value is
    bit-identical to its mode's own.  At (mu, x) = (1, -1), where the first
    zero degenerates to the origin and the integral diverges logarithmically,
    the record is the finite combination (method "special_x_neg1")
    v_1 = 12 exp[(1/pi) Int_1^inf log(t^2) K(t) dt] = 6.39303337215...
    """
    if isinstance(mu, Integral):
        return _contour_weights((mu,), x)[0]
    return _contour_weights(tuple(mu), x)


def weight_v_closed_x0(mu: int) -> WeightRecord:
    """Exact weight at x = 0: 4 F0^(1+sigma) [B(mu/2, 1/2)/(sqrt(2) pi)]^(2 sigma).

    F0 = (mu - 1/2) pi and sigma are the x = 0 zero's, from roots.
    """
    zero = roots.zero_cached(mu, 0.0)
    ratio = euler_beta(mu / 2.0, 0.5) / (math.sqrt(2.0) * math.pi)
    v = 4.0 * zero.gamma ** (1 + zero.sigma) * ratio ** (2 * zero.sigma)
    return WeightRecord(mu=mu, v=v, method="closed_form_x0")


def weight(modes, x: float) -> list[WeightRecord]:
    """Weights v_mu(x) of a sequence of modes: the closed forms at x = 0,
    one weight_v batch everywhere else."""
    if x == 0.0:
        return [weight_v_closed_x0(mu) for mu in modes]
    return weight_v(modes, x)


MODE_BLOCK = 16  # weights are computed and cached in whole blocks of modes


def batch_size(m: int) -> int:
    """Smallest whole number of mode blocks that covers modes 1..m."""
    return MODE_BLOCK * -(-m // MODE_BLOCK)


@lru_cache(maxsize=256, typed=True)
def weight_cached(x: float, n: int) -> tuple[float, ...]:
    """Memoized weights v_1..v_n(x), one batch per (x, n).

    The series, determinant and spin modules read it with n = batch_size(m)
    for their highest mode m: 16 for the series to order 8 and the spin
    model, 32 for the determinant at its default 16 modes, a second entry.
    """
    return tuple(rec.v for rec in weight(range(1, n + 1), x))
