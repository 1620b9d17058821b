"""Scalar special functions backing the critical closed forms.

Everything here is elementary numerics: a real dilogarithm, the Euler beta
function, divisor sums, the weight-two Eisenstein series and the Dedekind
eta function as q-series on the imaginary axis, Catalan's constant, and the
s-derivative of the Hurwitz zeta function at s = -1 via Euler-Maclaurin.

The q-series run only at q = exp(-2*pi*rho) <= exp(-2*pi): below rho = 1 eta
and E2 go through their modular relations (Apostol, Modular Functions and
Dirichlet Series), and each sum stops within eight terms, below 1e-18.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "dilog",
    "euler_beta",
    "divisor_sigma",
    "eisenstein_E2",
    "log_q_pochhammer",
    "log_dedekind_eta",
    "catalan_constant",
    "hurwitz_zeta_sderiv_neg1",
]

_PI2_6 = math.pi * math.pi / 6.0

# 64 terms of sum z^k/k^2 cover |z| <= 1/2 to below 1e-20.
_DILOG_COEFFS = np.array([1.0 / (k * k) for k in range(64, 0, -1)])


def _dilog_series(z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in _DILOG_COEFFS:
        acc = acc * z + c
    return acc * z


def dilog(z):
    """Real dilogarithm Li2(z) for z <= 1, NaN rejected (scalar or ndarray).

    Direct series for |z| <= 1/2; the reflection z -> 1-z maps (1/2, 1]
    and the Landen transform z -> z/(z-1) maps [-1, -1/2); arguments below
    -1 are first folded back with the inversion formula.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    w = np.atleast_1d(z_arr).astype(float).copy()
    if not np.all(w <= 1.0):
        raise ValueError("dilog requires z <= 1")
    out = np.zeros_like(w)
    sign = np.ones_like(w)

    inv = w < -1.0
    if np.any(inv):
        v = w[inv]
        out[inv] += sign[inv] * (-_PI2_6 - 0.5 * np.log(-v) ** 2)
        sign[inv] = -sign[inv]
        w[inv] = 1.0 / v  # now in (-1, 0)

    landen = w < -0.5
    if np.any(landen):
        v = w[landen]
        out[landen] += sign[landen] * (-0.5 * np.log1p(-v) ** 2)
        sign[landen] = -sign[landen]
        w[landen] = v / (v - 1.0)  # now in (0, 1/2]

    refl = w > 0.5
    if np.any(refl):
        v = w[refl]
        lg = np.where(v == 1.0, 0.0, np.log(v) * np.log1p(-np.where(v == 1.0, 0.0, v)))
        out[refl] += sign[refl] * (_PI2_6 - lg)
        sign[refl] = -sign[refl]
        w[refl] = 1.0 - v  # now in [0, 1/2)

    out += sign * _dilog_series(w)
    return float(out[0]) if scalar else out


def euler_beta(a: float, b: float) -> float:
    """Euler beta B(a, b) for positive finite arguments."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("euler_beta requires positive finite arguments")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def divisor_sigma(n: int) -> int:
    """Sum of the divisors of n, over the pairs (d, n // d) with d <= sqrt(n).

    A non-integer n raises TypeError, as operator.index does.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("divisor_sigma requires n >= 1")
    root = math.isqrt(n)
    pairs = sum(d + n // d for d in range(1, root + 1) if n % d == 0)
    return pairs - root if root * root == n else pairs


_TERM_FLOOR = 1e-18


def _sigma_q_sum(q: float) -> float:
    """sum_n sigma(n) q^n for q <= exp(-2*pi); stops at the first term below
    1e-18 from the fourth on, where the omitted tail is below 1e-20."""
    total = 0.0
    n = 0
    while True:
        n += 1
        term = divisor_sigma(n) * q**n
        total += term
        if n >= 4 and term < _TERM_FLOOR:
            return total


def _nome(rho: float) -> float:
    """The nome q = exp(-2*pi*rho) of the point i*rho, finite rho > 0."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    return math.exp(-2.0 * math.pi * rho)


def _finite(value: float, what: str) -> float:
    """value itself, or OverflowError where it has left the doubles."""
    if math.isinf(value):
        raise OverflowError(f"{what} overflows the doubles")
    return value


def eisenstein_E2(rho: float) -> float:
    """Weight-two Eisenstein series E2 on the imaginary axis, argument i*rho.

    E2(i*rho) = 1 - 24 * sum_{n>=1} sigma(n) q^n with q = exp(-2*pi*rho) for
    rho >= 1, and through E2(i/rho) = -rho^2 E2(i*rho) + 6 rho/pi below;
    OverflowError where the value leaves the doubles (rho < 7.5e-155).
    """
    if 0.0 < rho < 1.0:
        s = _finite(1.0 / rho, f"1/rho at rho = {rho}")
        return _finite(s * (6.0 / math.pi - s * eisenstein_E2(s)), f"E2 at rho = {rho}")
    return 1.0 - 24.0 * _sigma_q_sum(_nome(rho))


def log_q_pochhammer(rho: float) -> float:
    """log of the q-Pochhammer symbol (q)_inf at q = exp(-2*pi*rho).

    Computed as sum_j log(1 - q^j) for rho >= 1 and as log eta(i*rho) +
    pi*rho/12 below; the equivalent divisor-sum form -sum_n sigma(n) q^n / n
    agrees to full precision and is exercised in the tests.
    """
    if 0.0 < rho < 1.0:
        return log_dedekind_eta(rho) + math.pi * rho / 12.0
    q = _nome(rho)
    total = 0.0
    qj = 1.0
    while True:
        qj *= q
        if qj < _TERM_FLOOR:
            return total
        total += math.log1p(-qj)


def log_dedekind_eta(rho: float) -> float:
    """log eta(i*rho) = -pi*rho/12 + log (q)_inf, and through
    eta(i/rho) = sqrt(rho) eta(i*rho) below rho = 1; pi*rho/12 is formed from
    rho/16, exact in binary, so the value is finite down to rho ~ 1.46e-309."""
    if 0.0 < rho < 1.0:
        s = 0.0625 / rho  # (1/rho)/16; from 1/rho = 16 on, log (q)_inf is 0.0
        value = -16.0 * (math.pi * s / 12.0) + (log_q_pochhammer(16.0 * s) if s < 1.0 else 0.0)
        return _finite(value - 0.5 * math.log(rho), f"log eta at rho = {rho}")
    return -16.0 * (math.pi * (rho / 16.0) / 12.0) + log_q_pochhammer(rho)


def catalan_constant() -> float:
    """Catalan's constant 0.915965594177219015..."""
    return 0.915965594177219015


# Bernoulli numbers B_2..B_16 for the Euler-Maclaurin tail.
_BERNOULLI = {2: 1.0 / 6, 4: -1.0 / 30, 6: 1.0 / 42, 8: -1.0 / 30,
              10: 5.0 / 66, 12: -691.0 / 2730, 14: 7.0 / 6, 16: -3617.0 / 510}
_EM_TERMS = 10
_EM_BERNOULLI_ORDERS = 8


def hurwitz_zeta_sderiv_neg1(a: float) -> float:
    """d/ds of the Hurwitz zeta function zeta(s, a) at s = -1, 0 < a <= 1.

    Euler-Maclaurin with the s-derivative taken analytically term by term:
    the direct sum contributes -(k+a) log(k+a); the integral, boundary and
    Bernoulli corrections have closed s-derivatives at s = -1 (for orders
    2j >= 4 the Pochhammer factor vanishes there and only its derivative
    -(2j-3)! survives).  The cutoff is kept small so that the large direct
    sum and integral term cancel with as little rounding as possible; all
    contributions are combined in one compensated sum; at c = 10 + a > 10 its
    last Bernoulli term is below 2.1e-17.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("argument must lie in (0, 1]")
    c = _EM_TERMS + a
    lc = math.log(c)
    pieces = [-(k + a) * math.log(k + a) for k in range(_EM_TERMS) if k + a != 1.0]
    pieces.append(c * c * (2.0 * lc - 1.0) / 4.0)
    pieces.append(-0.5 * c * lc)
    pieces.append(_BERNOULLI[2] / 2.0 * (lc + 1.0))
    pieces += [-_BERNOULLI[2 * j] / ((2 * j - 2) * (2 * j - 1) * (2 * j)) * c ** (2 - 2 * j)
               for j in range(2, _EM_BERNOULLI_ORDERS + 1)]
    return math.fsum(pieces)
