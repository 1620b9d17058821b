"""Zero spectrum of the universal dispersion function cos(F) + (x/F) sin(F).

The scaled mode spectrum of the open strip near criticality is set by the
zeroes F_mu(x) of this transcendental function.  All zeroes are real and
positive except the first, which vanishes at x = -1 and moves onto the
imaginary axis below.  Zeroes are represented by the signed square
phi_sq = F_mu^2 so that every downstream formula stays in real arithmetic;
the single imaginary zero simply carries phi_sq < 0.

Each zero also carries its decay rate gamma = sqrt(x^2 + phi_sq), the
scaled transfer-matrix eigenvalue exponent, and the parity
sigma = (-1)^(mu-1) that splits the spectrum into odd and even families.
zeros_batch gives find_zero's zeros at many x, solving the real ones in one
vectorized Newton iteration; np.sin and np.cos must round as math's do.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

__all__ = [
    "ZeroRecord",
    "RootFindError",
    "find_zero",
    "find_zeros",
    "zeros_batch",
    "near_degenerate",
    "solve_bracket",
]


class RootFindError(RuntimeError):
    """Raised when the bracketed iteration fails to converge."""


_TOL = 1e-14  # residual tolerance on the dispersion function
# zeros_batch leaves to find_zero each zero where one ulp of F moves the
# dispersion function by more than this; of 5368 such zeros (x in
# [-1e8, 1e8], modes 1..40) only 1.4 % met the residual test in its iteration
_ROUTE_ULP_TOL = 16.0 * _TOL
# Within this distance of x = -1 (not at it), the first zero is solved in the
# form of the dispersion function that does not cancel as the zero nears 0.
DEGENERATE_WINDOW = 2e-2
# Taylor coefficients in p = F^2 of S = sin(F)/F and K = (sin F - F cos F)/F^3,
# highest first; the first term left out is below 1e-23 for |p| < 0.07
_S_COEFFS = [(-1) ** k / math.factorial(2 * k + 1) for k in range(7, -1, -1)]
_K_COEFFS = [(-1) ** k * 2 * (k + 1) / math.factorial(2 * k + 3) for k in range(7, -1, -1)]


def _check_mode(mu) -> None:
    """Reject a mode index that is not an integer >= 1 (numpy integers pass)."""
    if not (isinstance(mu, Integral) and mu >= 1):
        raise ValueError(f"mu must be >= 1 and an integer, got {mu!r}")


class ZeroRecord(NamedTuple):
    """One zero of the dispersion function at fixed x.

    phi_sq is the signed square of the zero: negative only for mu = 1 and
    x < -1, where the zero sits at i*sqrt(-phi_sq) on the imaginary axis.
    """

    mu: int
    sigma: int
    phi_sq: float
    gamma: float

    @property
    def phi(self) -> float:
        """sqrt(phi_sq) for real zeroes; raises for the imaginary one."""
        if self.phi_sq < 0:
            raise ValueError("zero is imaginary; use phi_sq directly")
        return math.sqrt(self.phi_sq)


def _char_and_deriv(f, x, sin=math.sin, cos=math.cos):
    """Dispersion function and F-derivative at F = f; arrays with np.sin, np.cos."""
    s, c = sin(f), cos(f)
    p = c + x * s / f
    dp = -s + x * (f * c - s) / (f * f)
    return p, dp


def solve_bracket(func, lo: float, hi: float, tol: float, what: str) -> float:
    """Safeguarded Newton within [lo, hi]; func(z) = (f, f') and f changes sign.

    f' = 0 steps by bisection.  Without a sign change an end whose residual
    is within tol, or within what one ulp of the end moves f, is taken:
    rounding can flip the residual's sign at a zero that close to an end.
    A collapsed bracket is accepted by the same slope rule (or 1e-11): where
    |f'| is large, one ulp of z moves f by more than any fixed tolerance.
    """
    (flo, dlo), (fhi, dhi) = func(lo), func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        end, f_end, d_end = min((lo, flo, dlo), (hi, fhi, dhi), key=lambda e: abs(e[1]))
        if abs(f_end) <= max(tol, abs(d_end) * math.ulp(end)):
            return end
        raise RootFindError(f"no sign change on bracket [{lo}, {hi}] for {what}")
    z = 0.5 * (lo + hi)
    for _ in range(200):
        fz, dz = func(z)
        if abs(fz) <= tol:
            return z
        if math.copysign(1.0, fz) == math.copysign(1.0, flo):
            lo, flo = z, fz
        else:
            hi = z
        step_ok = dz != 0.0
        if step_ok:
            znew = z - fz / dz
            step_ok = lo < znew < hi
        z = znew if step_ok else 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            fz, dz = func(z)
            if abs(fz) <= max(tol, 1e-11, 4.0 * abs(dz) * math.ulp(z)):
                return z
            raise RootFindError(
                f"bracket collapsed at [{lo}, {hi}] with residual {fz:.3e} for {what}"
            )
    raise RootFindError(f"iteration cap reached on bracket [{lo}, {hi}] for {what}")


def near_degenerate(mu: int, x: float) -> bool:
    """Whether (mu, x) is the first zero within DEGENERATE_WINDOW of x = -1, but not at it."""
    return mu == 1 and 0.0 < abs(1.0 + x) < DEGENERATE_WINDOW


def _find_zero_near_degenerate(x: float) -> ZeroRecord:
    """First zero for near_degenerate(1, x), on either side of x = -1.

    cos F + (x/F) sin F = (1 + x) S(p) - p K(p) with p = F^2, S and K entire
    in p and near 1 and 1/3 at p = 0, so p = phi_sq solves p = (1 + x) S(p)/K(p)
    without the cancellation of the direct form; p < 0 is the imaginary zero.
    1 + x is exact here, and each fixed-point step gains a factor |1 + x|/5.
    """
    eps = 1.0 + x
    p = 3.0 * eps
    for _ in range(8):
        p = eps * float(np.polyval(_S_COEFFS, p)) / float(np.polyval(_K_COEFFS, p))
    return ZeroRecord(mu=1, sigma=1, phi_sq=p, gamma=math.sqrt(x * x + p))


def _find_zero_imag(x: float) -> ZeroRecord:
    """First zero for x < -1: solve y*coth(y) = -x on (0, -x), phi_sq = -y^2."""

    def g(y: float) -> tuple[float, float]:
        t = math.tanh(y)
        dg = 1.0 / t - y / (math.sinh(y) ** 2) if y < 350.0 else 1.0
        return y / t - (-x), dg

    lo = 1e-12
    hi = -x
    y = solve_bracket(g, lo, hi, _TOL * max(1.0, -x), f"imaginary zero at x={x}")
    # gamma = sqrt(x^2 - y^2) = y/sinh(y) from the dispersion relation;
    # the direct difference cancels catastrophically for large |x|.
    gamma = y / math.sinh(y) if y < 350.0 else 2.0 * y * math.exp(-y)
    return ZeroRecord(mu=1, sigma=1, phi_sq=-(y * y), gamma=gamma)


def find_zero(mu: int, x: float) -> ZeroRecord:
    """Locate the mu-th zero at scaling variable x.

    Brackets: for x > 0 the mu-th zero lies in ((mu-1/2)pi, mu*pi); for
    -1 <= x <= 0 in [(mu-1)pi, (mu-1/2)pi]; for x < -1 the same holds for
    mu >= 2 while the first zero is imaginary and solved through
    y*coth(y) = -x.  Bisection refined by safeguarded Newton, residual
    tolerance _TOL on the dispersion function.  The first zero within
    DEGENERATE_WINDOW of x = -1 comes instead from a form that does not
    cancel as it nears the origin.  OverflowError beyond |x| = 1.34e154,
    where x^2 overflows.
    """
    _check_mode(mu)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x * x == math.inf:
        raise OverflowError(f"zero mu={mu} at x={x}: x^2 overflows the doubles")
    sigma = 1 if mu % 2 == 1 else -1
    if x == 0.0:
        f0 = (mu - 0.5) * math.pi
        return ZeroRecord(mu=mu, sigma=sigma, phi_sq=f0 * f0, gamma=f0)
    if mu == 1 and x == -1.0:
        # doubly degenerate zero at the origin
        return ZeroRecord(mu=1, sigma=1, phi_sq=0.0, gamma=1.0)
    if near_degenerate(mu, x):
        return _find_zero_near_degenerate(x)
    if mu == 1 and x < -1.0:
        return _find_zero_imag(x)

    if x > 0.0:
        lo, hi = (mu - 0.5) * math.pi, mu * math.pi
    else:
        lo, hi = (mu - 1.0) * math.pi, (mu - 0.5) * math.pi
    if lo == 0.0:
        lo = 1e-12

    f = solve_bracket(lambda f: _char_and_deriv(f, x), lo, hi, _TOL,
                      f"zero mu={mu} at x={x}")
    phi_sq = f * f
    gamma = math.sqrt(x * x + phi_sq)
    return ZeroRecord(mu=mu, sigma=sigma, phi_sq=phi_sq, gamma=gamma)


@lru_cache(maxsize=4096, typed=True)
def zero_cached(mu: int, x: float) -> ZeroRecord:
    """Memoized find_zero (shared across modules)."""
    return find_zero(mu, x)


def find_zeros(count: int, x: float) -> list[ZeroRecord]:
    """Zeroes for mu = 1..count, strictly ordered in phi_sq."""
    if count < 1:
        raise ValueError("count must be >= 1")
    records = zeros_batch([x], count)[0]
    for a, b in zip(records, records[1:]):
        if not a.phi_sq < b.phi_sq:
            raise RootFindError(f"zero ordering violated between mu={a.mu} and mu={b.mu}")
    return records


def zeros_batch(xs, count: int) -> list[list[ZeroRecord]]:
    """[find_zero(mu, x) for mu in 1..count] for each x of xs, bit for bit, errors included.

    The real zeros of find_zero's brackets (x != 0; mu >= 2, or x > -1 outside
    DEGENERATE_WINDOW) run solve_bracket's iteration side by side in the same
    operations, except where the slope at the zero is too steep for its
    residual test (from |x| of about 1e3 on).  Every other zero, and each that
    leaves the iteration other than by its residual test, is find_zero's, in
    (x, mu) order.
    """
    x = np.repeat(np.asarray(xs, dtype=float), count)
    mu = np.tile(np.arange(1, count + 1), len(xs))
    root = np.full(x.size, np.nan)
    with np.errstate(all="ignore"):
        todo = np.flatnonzero(np.isfinite(x * x) & (x != 0.0)
                              & ((mu >= 2) | (1.0 + x >= DEGENERATE_WINDOW)))
        xg, m = x[todo], mu[todo]
        lo = np.where(xg > 0.0, m - 0.5, m - 1.0) * np.pi
        hi = np.where(xg > 0.0, m, m - 0.5) * np.pi
        lo[lo == 0.0] = 1e-12
        # |f'| at a zero F is (F^2 + x^2 + x)/(F sqrt(F^2 + x^2)), about |x|/F at large |x|
        slope = (hi * hi + xg * xg + xg) / (hi * np.hypot(hi, xg))
        keep = slope * np.spacing(hi) <= _ROUTE_ULP_TOL
        todo, xg, lo, hi = (a[keep] for a in (todo, xg, lo, hi))
        flo, fhi = (_char_and_deriv(end, xg, np.sin, np.cos)[0] for end in (lo, hi))
        go = (flo != 0.0) & (fhi != 0.0) & (np.signbit(flo) != np.signbit(fhi))
        z = 0.5 * (lo + hi)
        for _ in range(200):
            todo, xg, lo, hi, flo, z = (a[go] for a in (todo, xg, lo, hi, flo, z))
            if not todo.size:
                break
            fz, dz = _char_and_deriv(z, xg, np.sin, np.cos)
            done = np.abs(fz) <= _TOL
            root[todo[done]] = z[done]
            same = np.signbit(fz) == np.signbit(flo)
            lo, flo, hi = np.where(same, z, lo), np.where(same, fz, flo), np.where(same, hi, z)
            znew = z - fz / dz
            z = np.where((dz != 0.0) & (lo < znew) & (znew < hi), znew, 0.5 * (lo + hi))
            go = ~done & (hi - lo > 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
        gamma = np.sqrt(x * x + root * root)
    fields = zip((~np.isnan(root)).tolist(), (root * root).tolist(), gamma.tolist())
    return [[ZeroRecord(mu=m, sigma=1 if m % 2 == 1 else -1, phi_sq=p, gamma=g) if ok
             else find_zero(m, xi) for m, (ok, p, g) in zip(range(1, count + 1), fields)]
            for xi in xs]

