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
x = -1 where the first zero degenerates.  A brute-force regularized-product
oracle over the raw zeroes validates parity-balanced weight combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "weight_w_generating_check",
    "oracle_product_p",
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
    method: str  # contour | closed_form_x0 | special_x_neg1 | oracle_product


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


def _exponent_integral(x: float, log_factor) -> float:
    """Int_0^inf log_factor(s) * kernel(s) ds with x-dependent node placement.

    For x < -1 the kernel develops a spike of width ~ 2|x| e^{-|x|} at the
    origin (the scale of the first zero's decay rate); the substitution
    s = c sinh(v) with c set to that scale makes it an O(1) feature that
    the adaptive panels resolve at any x.
    """

    def integrand(s: np.ndarray) -> np.ndarray:
        return log_factor(s) * _kernel_sub(s, x)

    if x >= -1.0:
        return quad.integrate_sqrt_singularity(integrand, abs(x), WEIGHT_SPEC)
    c = roots.zero_cached(1, x).gamma
    return quad.integrate_sinh_map(integrand, c, -x + 45.0, WEIGHT_SPEC)


def _prefactor(zero: roots.ZeroRecord, x: float) -> float:
    g2 = zero.gamma * zero.gamma
    return 4.0 * (zero.gamma - x) * g2 / (g2 + x)


def weight_v(mu: int, x: float) -> WeightRecord:
    """Weight v_mu(x) by the contour-reduced integral route.

    Not defined at (mu, x) = (1, -1), where the first zero degenerates;
    use weight_v_special_xneg1 there.
    """
    if mu == 1 and x == -1.0:
        raise ValueError("degenerate point; use weight_v_special_xneg1")
    zero = roots.zero_cached(mu, x)
    if zero.phi_sq > 0.0:
        phi_sq = zero.phi_sq

        def log_factor(s: np.ndarray) -> np.ndarray:
            return np.log1p((x * x + s * s) / phi_sq)

        sign = 1.0
    else:
        # imaginary first zero: |1 - t^2/y^2| = (gamma^2 + s^2)/y^2, and the
        # constant i*pi branch reduces to an overall sign flip
        y_sq = -zero.phi_sq
        g_sq = zero.gamma * zero.gamma

        def log_factor(s: np.ndarray) -> np.ndarray:
            return np.log((g_sq + s * s) / y_sq)

        sign = -1.0
    expo = zero.sigma / math.pi * _exponent_integral(x, log_factor)
    v = sign * _prefactor(zero, x) * math.exp(expo)
    return WeightRecord(mu=mu, v=v, method="contour")


def weight_v_special_xneg1() -> WeightRecord:
    """First weight at x = -1, where the integral diverges logarithmically.

    The degenerate zero at the origin leaves the finite combination
    v_1 = 12 exp[(1/pi) Int_1^inf log(t^2) K(t) dt] = 6.39303337215...
    """

    def log_factor(s: np.ndarray) -> np.ndarray:
        return np.log(1.0 + s * s)  # log(t^2) with t^2 = 1 + s^2

    expo = _exponent_integral(-1.0, log_factor) / math.pi
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


def weight(mu: int, x: float) -> WeightRecord:
    """Weight v_mu(x), dispatched over the three routes.

    The closed form at x = 0, the special form for the first weight at
    x = -1, and the contour integral everywhere else.
    """
    if x == 0.0:
        return weight_v_closed_x0(mu)
    if mu == 1 and x == -1.0:
        return weight_v_special_xneg1()
    return weight_v(mu, x)


@lru_cache(maxsize=None)
def weight_cached(mu: int, x: float) -> float:
    """Memoized weight value used by the series/determinant/spin modules."""
    return weight(mu, x).v


def weight_w_generating_check(eta: float, n_terms: int) -> float:
    """Consistency of sqrt-weights at x = 0 with their generating function.

    The square roots w_mu = sqrt(v_mu(0)) have the closed generating
    function (pi/sqrt(2)) (1-h)^(-3/2) (1+h)^(1/2); its Taylor coefficients
    are compared with the closed-form weights, and the series evaluated at
    eta is compared against the closed form.  Returns the maximum absolute
    discrepancy found.
    """
    if not abs(eta) < 1.0:
        raise ValueError("eta must satisfy |eta| < 1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # Taylor coefficients by convolving the two binomial series
    n = max(n_terms, 8)
    a = np.ones(n)  # (1-h)^(-3/2): a_k = a_{k-1} * (k+1/2)/k
    for k in range(1, n):
        a[k] = a[k - 1] * (k + 0.5) / k
    b = np.zeros(n)  # (1+h)^(1/2)
    b[0] = 1.0
    for k in range(1, n):
        b[k] = b[k - 1] * (0.5 - (k - 1)) / k
    coeff = math.pi / math.sqrt(2.0) * np.convolve(a, b)[:n]
    err = 0.0
    for mu in range(1, n_terms + 1):
        w_mu = math.sqrt(weight_v_closed_x0(mu).v)
        err = max(err, abs(coeff[mu - 1] - w_mu))
    series_val = float(np.polyval(coeff[:n_terms][::-1], eta))
    closed_val = math.pi / math.sqrt(2.0) / (1.0 - eta) * math.sqrt((1.0 + eta) / (1.0 - eta))
    tail = abs(coeff[n_terms - 1] * eta ** (n_terms - 1)) / max(1e-30, 1.0 - abs(eta))
    err = max(err, max(0.0, abs(series_val - closed_val) - 2.0 * tail))
    return err


def oracle_product_p(mu: int, x: float, n_zeros: int) -> float:
    """Brute-force regularized product p_mu over the first n_zeros zeroes.

    p_mu = F_mu^2 prod'_{nu != mu} (1 - F_mu^2/F_nu^2)^(-sigma_mu sigma_nu),
    with vanishing or divergent factors dropped.  Consecutive zeroes are
    paired and the pair sums extrapolated once in the inverse square of the
    pair count, which the alternating 1/nu^2 tail needs for ~1e-7 accuracy
    around n_zeros = 400.  Only parity-balanced combinations of the result
    are convention-free; see the tests.
    """
    if n_zeros < mu + 8:
        raise ValueError("n_zeros too small for a meaningful truncation")
    target = roots.zero_cached(mu, x)
    sigma_mu = target.sigma

    def log_sum(count: int) -> float:
        total = 0.0
        for nu in range(1, count + 1):
            if nu == mu:
                continue
            z = roots.zero_cached(nu, x)
            if z.phi_sq == 0.0:
                continue  # regularization drops the divergent factor
            factor = 1.0 - target.phi_sq / z.phi_sq
            sigma_nu = z.sigma
            total += -sigma_mu * sigma_nu * math.log(abs(factor))
        return total

    pairs = n_zeros // 2
    s_full = log_sum(2 * pairs)
    s_half = log_sum(2 * (pairs // 2))
    s_extrap = (4.0 * s_full - s_half) / 3.0
    magnitude = abs(target.phi_sq) * math.exp(s_extrap)
    return sigma_mu * magnitude
