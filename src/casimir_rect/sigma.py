"""Strip residual partition-function scaling function by two routes.

The scaling function Sigma(x, rho) of the strip residual partition function
is computed either as the balanced-subset series

    Sigma^(N) = 1 + sum_{n<=N} sum_{s in S_n} a_s exp(-rho Gamma_s),

where S_n collects the index sets with equal numbers of odd and even
elements and half-integer weight sum 2n (|S_n| equals the integer partition
number of n), or as the determinant det(1 + Y) of the truncated residual
matrix.  Both routes share the same zeroes and weights; their agreement to
the stated exponential accuracy is one of the package's main cross-checks.

Also provided: the potential scaling function Psi = -log(Sigma)/rho and the
strip force psi = d(log Sigma)/d(rho), the latter with the rho-derivative
taken analytically on the series; psi_strip_batch gives psi at many x that
are used once, past the caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from . import roots
from .weights import batch_size, weight_batch, weight_cached

__all__ = [
    "SubsetTerm",
    "SigmaResult",
    "enumerate_sets",
    "amplitude",
    "sigma_series",
    "sigma_det",
    "Psi",
    "psi_strip",
    "psi_strip_batch",
    "critical_series_coefficients",
]

_MIN_RHO = 0.5


@dataclass(frozen=True)
class SubsetTerm:
    """One term of the balanced-subset series."""

    a: float
    gamma_sum: float


@dataclass(frozen=True)
class SigmaResult:
    """Value of Sigma with the bound on its truncation error."""

    value: float
    error_bound: float


def _balanced(s) -> bool:
    return sum(1 for m in s if m % 2 == 1) == sum(1 for m in s if m % 2 == 0)


@lru_cache(maxsize=None, typed=True)
def enumerate_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """All balanced index sets with half-integer weight sum 2n.

    Sets are sorted ascending and returned in lexicographic order; their
    count equals the integer partition number of n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def distinct(total: int, lo: int):
        # ascending indices >= lo whose weights 2m - 1 sum to total
        if total == 0:
            yield ()
        for m in range(lo, (total + 1) // 2 + 1):
            for rest in distinct(total - (2 * m - 1), m + 1):
                yield (m, *rest)

    return tuple(sorted(s for s in distinct(4 * n, 1) if _balanced(s)))


def amplitude(s, x: float) -> SubsetTerm:
    """Amplitude a_s and exponent Gamma_s of one balanced index set.

    a_s = prod_{pairs {m,n} in s} (F_m^2 - F_n^2)^(2 sigma_m sigma_n)
          * prod_{m in s} v_m(x),

    with the signed squares used directly so the imaginary first zero needs
    no special handling.  The pair-exponent sign is pinned by the critical
    value a_{1,2}(0) = 1/4 and verified against the determinant route.
    """
    ss = tuple(sorted(set(s)))
    if len(ss) != len(tuple(s)):
        raise ValueError("index set must have distinct elements")
    if not _balanced(ss):
        raise ValueError("index set must balance odd and even elements")
    zs = [roots.zero_cached(m, x) for m in ss]
    vs = weight_cached(x, batch_size(ss[-1])) if ss else ()
    a = 1.0
    for i, zi in enumerate(zs):
        for zj in zs[i + 1:]:
            d = zi.phi_sq - zj.phi_sq
            a *= d ** (2 * zi.sigma * zj.sigma)
    for m in ss:
        a *= vs[m - 1]
    return SubsetTerm(a=a, gamma_sum=math.fsum(z.gamma for z in zs))


@lru_cache(maxsize=None, typed=True)
def _plan(N: int):
    """Index plan of the series terms to order N, made once from enumerate_sets.

    The mode pairs (m, k, 2 sigma_m sigma_k), 0-based with m < k, in order of
    first use; and per order and set, getters of the set's factors from
    [pair factors..., v_1, v_2, ...] (amplitude's order) and of its gammas.
    """
    pairs: dict[tuple[int, int], int] = {}
    orders = []
    for n in range(1, N + 1):
        plans = []
        for s in enumerate_sets(n):
            modes = [m - 1 for m in s]
            plans.append(([pairs.setdefault((m, k), len(pairs))
                           for i, m in enumerate(modes) for k in modes[i + 1:]], modes))
        orders.append(plans)
    factors = [(m, k, 2 if (k - m) % 2 == 0 else -2) for m, k in pairs]
    return factors, [[(itemgetter(*idx, *(len(factors) + m for m in modes)), itemgetter(*modes))
                      for idx, modes in plans] for plans in orders]


def _build_terms(zeros, vs, N: int) -> list[tuple[float, float]]:
    """The series terms (a_s, Gamma_s) to order N from the zeros and weights
    v_1, v_2, ... of modes 1..2N at one x, bit for bit amplitude's values;
    within an order by decreasing Gamma_s, so the smallest is added last."""
    pairs, orders = _plan(N)
    factors = [(zeros[m].phi_sq - zeros[k].phi_sq) ** e for m, k, e in pairs]
    factors += vs
    gammas = [z.gamma for z in zeros]
    out = []
    for plans in orders:
        group = [(math.prod(take(factors)), math.fsum(take_gammas(gammas)))
                 for take, take_gammas in plans]
        group.sort(key=lambda term: -term[1])
        out += group
    return out


@lru_cache(maxsize=256, typed=True)
def _terms_up_to(x: float, N: int) -> tuple[tuple[float, float], ...]:
    zeros = [roots.zero_cached(m, x) for m in range(1, 2 * N + 1)]
    return tuple(_build_terms(zeros, weight_cached(x, batch_size(2 * N)), N))


def _require_order(N: int) -> None:
    if N < 1:
        raise ValueError("N must be >= 1")


def _require_rho(rho: float) -> None:
    if not rho >= _MIN_RHO:
        raise ValueError(
            f"rho = {rho} below {_MIN_RHO}; use the exchange symmetry at the "
            "potential/force level instead"
        )


def _sums(terms, rho: float) -> tuple[float, float]:
    """The force numerator -sum_s Gamma_s a_s exp(-rho Gamma_s) and Sigma^(N),
    accumulated in one pass over the series terms."""
    num = 0.0
    den = 1.0
    for a, gamma_sum in terms:
        w = a * math.exp(-rho * gamma_sum)
        num -= gamma_sum * w
        den += w
    return num, den


def _series_sums(x: float, rho: float, N: int) -> tuple[float, float]:
    _require_order(N)
    _require_rho(rho)
    return _sums(_terms_up_to(x, N), rho)


def sigma_series(x: float, rho: float, N: int) -> SigmaResult:
    """N-th series approximant to Sigma(x, rho); error o(exp(-2 pi rho N))."""
    value = _series_sums(x, rho, N)[1]
    return SigmaResult(value=value, error_bound=math.exp(-2.0 * math.pi * rho * N))


def _det_value(x: float, rho: float, modes: int) -> float:
    zs = [roots.zero_cached(mu, x) for mu in range(1, 2 * modes + 1)]
    vs = weight_cached(x, batch_size(2 * modes))
    phi_sq = np.array([z.phi_sq for z in zs])
    w = np.array([v * math.exp(-rho * z.gamma) for v, z in zip(vs, zs)])
    phi_o, phi_e = phi_sq[0::2], phi_sq[1::2]
    wo, we = w[0::2], w[1::2]
    t_eo = 1.0 / (phi_o[None, :] - phi_e[:, None])
    t_oe = 1.0 / (phi_e[None, :] - phi_o[:, None])
    y = -(we[:, None] * t_eo) @ (wo[:, None] * t_oe)
    return float(np.linalg.det(np.eye(modes) + y))


def sigma_det(x: float, rho: float, modes: int) -> SigmaResult:
    """Sigma(x, rho) as det(1 + Y) on the leading modes x modes block.

    Indices up to 2*modes enter (even rows/columns 2..2*modes, odd
    1..2*modes-1).  A one-step truncation comparison flags a modes value
    too small for the requested rho.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    _require_rho(rho)
    value = _det_value(x, rho, modes)
    if modes >= 2:
        delta = abs(value - _det_value(x, rho, modes - 1))
        if delta > 10.0 * math.exp(-2.0 * math.pi * rho * (modes - 1)):
            raise RuntimeError(f"modes = {modes} too small at rho = {rho}")
    return SigmaResult(value=value, error_bound=math.exp(-2.0 * math.pi * rho * modes))


def Psi(x: float, rho: float, N: int) -> float:
    """Strip potential scaling function -log(Sigma)/rho from the series."""
    return -math.log(sigma_series(x, rho, N).value) / rho


def psi_strip(x: float, rho: float, N: int) -> float:
    """Strip force scaling function d(log Sigma)/d(rho).

    The rho-derivative is taken analytically on the series:
    psi = -(sum_s a_s Gamma_s exp(-rho Gamma_s)) / Sigma^(N).
    """
    num, den = _series_sums(x, rho, N)
    return num / den


def psi_strip_batch(xs, rho: float, N: int) -> list[float]:
    """psi_strip(x, rho, N) for each x of xs, bit for bit, past the caches.

    For x used once, such as quadrature nodes: each x's zeros serve both its
    weights and its terms, and the weights of all x run as one batch.
    Raises what psi_strip raises at the first x of xs where it fails.
    """
    _require_order(N)
    _require_rho(rho)
    try:
        return _psi_batch(xs, rho, N)
    except (ArithmeticError, RuntimeError, ValueError):
        # the batch may meet a later x's failure first; x by x, the first
        # failing x raises what it raises alone
        for x in xs:
            _psi_batch([x], rho, N)
        raise


def _psi_batch(xs, rho: float, N: int) -> list[float]:
    modes = range(1, batch_size(2 * N) + 1)
    zeros = [[roots.find_zero(m, x) for m in modes] for x in xs]
    out = []
    for zs, vs in zip(zeros, weight_batch(xs, zeros)):
        num, den = _sums(_build_terms(zs, vs, N), rho)
        out.append(num / den)
    return out


def critical_series_coefficients(N: int) -> list[float]:
    """Coefficients of exp(-2 pi rho n) in Sigma at x = 0, for n = 1..N.

    Built from the exact closed-form weights; the first five are the
    rationals 1/4, 13/32, 55/128, 1235/2048, 4615/8192.
    """
    out = []
    for n in range(1, N + 1):
        out.append(math.fsum(amplitude(s, 0.0).a for s in enumerate_sets(n)))
    return out
