"""Scalar special functions backing the critical closed forms.

Everything here is elementary numerics: a real dilogarithm, the Euler beta
function, divisor sums, the weight-two Eisenstein series and the Dedekind
eta function as q-series on the imaginary axis, Catalan's constant, and the
s-derivative of the Hurwitz zeta function at s = -1 via Euler-Maclaurin.

All q-series use the nome q = exp(-2*pi*rho) and truncate when terms drop
below 1e-18, with an explicit geometric tail bound.
"""

from __future__ import annotations

import math

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
    """Real dilogarithm Li2(z) for z <= 1 (scalar or ndarray).

    Direct series for |z| <= 1/2; the reflection z -> 1-z maps (1/2, 1]
    and the Landen transform z -> z/(z-1) maps [-1, -1/2); arguments below
    -1 are first folded back with the inversion formula.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    w = np.atleast_1d(z_arr).astype(float).copy()
    if np.any(w > 1.0):
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
    """Euler beta B(a, b) for positive arguments."""
    if a <= 0 or b <= 0:
        raise ValueError("euler_beta requires positive arguments")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def divisor_sigma(n: int) -> int:
    """Sum of the divisors of n, by trial-division factorization."""
    if n < 1:
        raise ValueError("divisor_sigma requires n >= 1")
    total = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            pk = 1
            term = 1
            while m % p == 0:
                m //= p
                pk *= p
                term += pk
            total *= term
        p += 1 if p == 2 else 2
    if m > 1:
        total *= 1 + m
    return total


_TERM_FLOOR = 1e-18
_TERM_CAP = 5000


def _tail_bound(q: float, n: int) -> float:
    """Geometric bound on the omitted tail sum_{m>n} m^2 q^m."""
    r = q * ((n + 1) / n) ** 2
    if r >= 1.0:
        return math.inf
    return (n + 1) ** 2 * q ** (n + 1) / (1.0 - r)


def _sigma_q_sum(q: float) -> float:
    """sum_n sigma(n) q^n, truncated with a tail bound.

    The tail after N terms is bounded by sum_{n>N} n^2 q^n, which is
    geometric-dominated; the bound is checked to lie below 1e-15 relative to the
    leading term's scale.
    """
    if q == 0.0:
        return 0.0
    total = 0.0
    n = 0
    while n < _TERM_CAP:
        n += 1
        term = divisor_sigma(n) * q**n
        total += term
        if n >= 4 and term < _TERM_FLOOR:
            break
    else:
        raise RuntimeError("q-series truncation cap reached")
    if not _tail_bound(q, n) < 1e-15 * max(1.0, abs(total)):
        raise RuntimeError("q-series tail bound violated")
    return total


def eisenstein_E2(rho: float) -> float:
    """Weight-two Eisenstein series E2 on the imaginary axis, argument i*rho.

    E2(i*rho) = 1 - 24 * sum_{n>=1} sigma(n) q^n with q = exp(-2*pi*rho).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    q = math.exp(-2.0 * math.pi * rho)
    return 1.0 - 24.0 * _sigma_q_sum(q)


def log_q_pochhammer(rho: float) -> float:
    """log of the q-Pochhammer symbol (q)_inf at q = exp(-2*pi*rho).

    Computed as sum_j log(1 - q^j); the equivalent divisor-sum form
    -sum_n sigma(n) q^n / n agrees to full precision and is exercised in
    the tests.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    q = math.exp(-2.0 * math.pi * rho)
    if q == 0.0:
        return 0.0
    total = 0.0
    qj = 1.0
    for _ in range(_TERM_CAP):
        qj *= q
        if qj < _TERM_FLOOR:
            break
        total += math.log1p(-qj)
    return total


def log_dedekind_eta(rho: float) -> float:
    """log eta(i*rho) = -pi*rho/12 + log (q)_inf."""
    return -math.pi * rho / 12.0 + log_q_pochhammer(rho)


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
    contributions are combined in one compensated sum.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("argument must lie in (0, 1]")
    K = _EM_TERMS
    c = K + a
    lc = math.log(c)
    pieces = [-(k + a) * math.log(k + a) for k in range(K) if k + a != 1.0]
    pieces.append(c * c * (2.0 * lc - 1.0) / 4.0)
    pieces.append(-0.5 * c * lc)
    pieces.append(_BERNOULLI[2] / 2.0 * (lc + 1.0))
    last = math.inf
    for j in range(2, _EM_BERNOULLI_ORDERS + 1):
        term = -_BERNOULLI[2 * j] / ((2 * j - 2) * (2 * j - 1) * (2 * j)) * c ** (2 - 2 * j)
        pieces.append(term)
        last = abs(term)
    total = math.fsum(pieces)
    if last > 1e-15 * max(1.0, abs(total)):
        raise RuntimeError("Euler-Maclaurin tail failed to converge")
    return total
