"""Test-only oracles for the mode weights.

counting_integrand is the counting kernel K(t) in its unsubstituted form,
against which the library's substituted kernel is pinned;
weight_w_generating_check compares the closed-form weights at x = 0 with
the Taylor coefficients of their generating function, and
oracle_product_p is the brute-force regularized product over the raw
zeroes that validates parity-balanced weight combinations away from
x = 0.  None is used by the library itself.
"""

from __future__ import annotations

import math

import numpy as np

from casimir_rect import roots
from casimir_rect.weights import weight_v_closed_x0


def counting_integrand(t, x: float):
    """Real-axis counting kernel K(t) for t > |x|, finite x (scalar or ndarray)."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > abs(x)):
        raise ValueError("counting_integrand requires t > |x|")
    return (x + x * x - t_arr * t_arr) / (
        np.sqrt(t_arr * t_arr - x * x) * (t_arr * np.cosh(t_arr) + x * np.sinh(t_arr))
    )

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
