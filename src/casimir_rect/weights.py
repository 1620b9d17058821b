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

The kernel depends on x but not on the mode; only the log factor depends
on the mode.  So the weights of many modes, at one x or at many, run as one
lockstep quadrature (quad.integrate_lockstep) per route and sign of x:
every (x, mode) integral keeps its own adaptive panels and end point, and
each bisection round evaluates the new panels of all of them in one
integrand call, with x and the log factor broadcast per row.  The
quadrature sums each panel with the dot product of a lone panel
(np.vecdot), so each weight is bit-identical to the weight of its mode
computed alone, the degenerate one included.  weight_v batches the modes
at one x; weight_batch batches many x, uncached, for abscissae used once:
the nodes of I2's quadrature calls and the nodes of the series'
x-derivative stencils, five per x and four x to a batch.  weight_cached
holds v_1..v_n per x, one batch per entry.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import quad, roots
from .quad import QuadratureSpec
from .specialfn import euler_beta

__all__ = [
    "WeightRecord",
    "weight_v",
    "weight_v_closed_x0",
    "weight",
    "weight_batch",
    "batch_size",
    "weight_cached",
]

# Tight tolerances: weights feed amplitude products that are checked to 1e-9
# and the x = 0 closed-form comparison to 1e-11 relative.
WEIGHT_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14)


class WeightRecord(NamedTuple):
    """Weight value with the route that produced it."""

    mu: int
    v: float
    method: str  # contour | closed_form_x0 | special_x_neg1


def _kernel_sub(s: np.ndarray, x) -> np.ndarray:
    """Counting kernel times dt/ds after the substitution t = sqrt(x^2+s^2).

    Evaluates (x - s^2) / (t * cosh t * (t + x tanh t)).  x is one abscissa,
    or one per node of s, all on the same side of 0.  For x < 0 the factor
    t + x tanh t nearly cancels; it is assembled from the exact pieces
    s^2/(t+|x|) and 2|x|/(1+e^{2t}), both safe at any magnitude.
    """
    s = np.asarray(s, dtype=float)
    t = np.hypot(s, x)
    # exp(-2t) is evaluated once; it and 1 + exp(-2t) are released once used,
    # so they add no node array to the kernel's peak memory
    if np.all(x >= 0.0):
        d = t + x * np.tanh(t)
        one_e = 1.0 + np.exp(-2.0 * t)
    else:
        d = s * s / (t - x)
        e = np.exp(-2.0 * t)
        one_e = 1.0 + e
        d += (-2.0 * x) * e / one_e
        del e
    # 1/cosh(t) in overflow-safe form
    sech = 2.0 * np.exp(-t) / one_e
    del one_e
    return (x - s * s) * sech / (t * d)


def _prefactor(zero: roots.ZeroRecord, x: float) -> float:
    g2 = zero.gamma * zero.gamma
    # next to x = -1, gamma^2 + x = phi_sq + x (1 + x) without the cancellation
    denom = zero.phi_sq + x * (1.0 + x) if roots.near_degenerate(zero.mu, x) else g2 + x
    return 4.0 * (zero.gamma - x) * g2 / denom


def _contour_weights(xs, zeros) -> list[list[float]]:
    """Contour weights of the zeros zeros[i], found at xs[i], for each i.

    The (x, mode) integrals run as one lockstep per group of x that share
    the route and the sign: the sqrt route for x >= -1, the sinh route for
    x < -1.  Each weight is bit-identical to the one of its mode and x alone.
    Raises QuadratureError at once where a batch holds mode 1 at an x whose
    gamma_1^2 is subnormal (x from about -360.6 to -379): there the sinh
    route's spike is too narrow for the doubles and its integrals would run
    to the panel budget.
    """
    firsts = [next((z for z in zs if z.mu == 1), None) for zs in zeros]
    for x, first in zip(xs, firsts):
        g2 = first.gamma * first.gamma if first else 0.0
        if 0.0 < g2 < sys.float_info.min:
            raise quad.QuadratureError(f"gamma_1^2 = {g2:.3e} is subnormal at x = {x}; "
                                       "the weight integrals cannot converge")
    groups: dict[tuple[bool, bool], list[tuple[int, int]]] = {}
    for i, x in enumerate(xs):
        groups.setdefault((x >= -1.0, x >= 0.0), []).extend((i, k) for k in range(len(zeros[i])))
    out = [[0.0] * len(zs) for zs in zeros]
    for owners in filter(None, groups.values()):
        xa = np.array([xs[i] for i, _ in owners])
        zs = [zeros[i][k] for i, k in owners]
        # log factor log(1 + (x^2 + s^2)/phi^2) of a real zero; for the imaginary
        # first zero |1 - t^2/y^2| = (gamma^2 + s^2)/y^2, and the constant i*pi
        # branch reduces to an overall sign flip; for the degenerate one at
        # x = -1 it is log(t^2) = log(gamma^2 + s^2) with gamma = 1
        plain_log = np.array([not z.phi_sq > 0.0 for z in zs])
        shift = np.array([z.gamma * z.gamma if pl else xs[i] * xs[i]
                          for (i, _), z, pl in zip(owners, zs, plain_log)])
        scale = np.array([abs(z.phi_sq) or 1.0 for z in zs])

        def integrand(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
            ratio = (shift[rows] + s * s) / scale[rows]
            log_factor = np.where(plain_log[rows], np.log(ratio), np.log1p(ratio))
            return log_factor * _kernel_sub(s, xa[rows])

        # where gamma_1^2 underflows (x <~ -380) or x^2 overflows (x >~ 1e154)
        # the quadrature raises naming the non-finite panel; numpy's warnings
        # would only repeat that on stderr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if xa[0] >= -1.0:
                f, ends = integrand, quad.truncation_points(integrand, np.abs(xa), WEIGHT_SPEC)
            else:
                # the spike of width ~ gamma_1 at s = 0 becomes O(1) in v
                # under s = gamma_1 sinh(v), on [0, asinh((|x| + 45)/gamma_1)]
                c = [(firsts[i] or roots.zero_cached(1, xs[i])).gamma for i, _ in owners]
                ends = [math.asinh((45.0 - xs[i]) / ci) for (i, _), ci in zip(owners, c)]
                ca = np.array(c)

                def f(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
                    cr = ca[rows]
                    return integrand(cr * np.sinh(v), rows) * cr * np.cosh(v)

            integrals = quad.integrate_lockstep(f, [0.0] * len(ends), ends, WEIGHT_SPEC)
        for (i, k), zero, integral in zip(owners, zs, integrals):
            if zero.phi_sq == 0.0:
                out[i][k] = 12.0 * math.exp(integral / math.pi)
            else:
                sign = -1.0 if zero.phi_sq < 0.0 else 1.0
                out[i][k] = (sign * _prefactor(zero, xs[i])
                             * math.exp(zero.sigma / math.pi * integral))
    return out


def weight_v(mu, x: float):
    """Weights v_mu(x) by the contour-reduced integral route.

    mu is one mode, giving one WeightRecord, or a sequence of modes, giving
    a list of records whose integrals run side by side; each value is
    bit-identical to its mode's own.  At (mu, x) = (1, -1), where the first
    zero degenerates to the origin and the integral diverges logarithmically,
    the record is the finite combination (method "special_x_neg1")
    v_1 = 12 exp[(1/pi) Int_1^inf log(t^2) K(t) dt] = 6.39303337215...
    """
    modes = (mu,) if isinstance(mu, Integral) else tuple(mu)
    zeros = [roots.zero_cached(m, x) for m in modes]
    records = [WeightRecord(mu=m, v=v, method="special_x_neg1" if z.phi_sq == 0.0 else "contour")
               for m, z, v in zip(modes, zeros, _contour_weights([x], [zeros])[0])]
    return records[0] if isinstance(mu, Integral) else records


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


def weight_batch(xs, zeros) -> list[list[float]]:
    """Uncached weights of the zeros zeros[i], found at xs[i], for each i.

    Row i holds the values of weight(modes, xs[i]) bit for bit: the closed
    forms at x = 0, and elsewhere the contour integrals of all x together.
    """
    rest = [i for i, x in enumerate(xs) if x != 0.0]
    rows = iter(_contour_weights([xs[i] for i in rest], [zeros[i] for i in rest]))
    return [[weight_v_closed_x0(z.mu).v for z in zs] if x == 0.0 else next(rows)
            for x, zs in zip(xs, zeros)]


MODE_BLOCK = 16  # weights are computed and cached in whole blocks of modes


def batch_size(m: int) -> int:
    """Smallest whole number of mode blocks that covers modes 1..m."""
    return MODE_BLOCK * -(-m // MODE_BLOCK)


@lru_cache(maxsize=256, typed=True)
def weight_cached(x: float, n: int) -> tuple[float, ...]:
    """Memoized weights v_1..v_n(x), one batch per (x, n).

    The series, determinant and spin modules read it with n = batch_size(m)
    for their highest mode m: 16 for the series to order 8 and the spin
    model, 32 for the determinant at the CLI's 16 modes, a second entry.
    """
    return tuple(rec.v for rec in weight(range(1, n + 1), x))
