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
taken analytically on the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import roots
from .weights import batch_size, weight_cached

__all__ = [
    "SubsetTerm",
    "SigmaResult",
    "enumerate_sets",
    "amplitude",
    "sigma_series",
    "sigma_det",
    "Psi",
    "psi_strip",
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _terms_up_to(x: float, N: int) -> tuple[SubsetTerm, ...]:
    out: list[SubsetTerm] = []
    for n in range(1, N + 1):
        group = [amplitude(s, x) for s in enumerate_sets(n)]
        # smallest exponent last for stable accumulation
        group.sort(key=lambda t: -t.gamma_sum)
        out.extend(group)
    return tuple(out)


def _require_rho(rho: float) -> None:
    if not rho >= _MIN_RHO:
        raise ValueError(
            f"rho = {rho} below {_MIN_RHO}; use the exchange symmetry at the "
            "potential/force level instead"
        )


def sigma_series(x: float, rho: float, N: int) -> SigmaResult:
    """N-th series approximant to Sigma(x, rho); error o(exp(-2 pi rho N))."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_rho(rho)
    total = 1.0
    for term in _terms_up_to(x, N):
        total += term.a * math.exp(-rho * term.gamma_sum)
    return SigmaResult(value=total, error_bound=math.exp(-2.0 * math.pi * rho * N))


def _det_value(x: float, rho: float, modes: int) -> float:
    even = [roots.zero_cached(2 * k, x) for k in range(1, modes + 1)]
    odd = [roots.zero_cached(2 * k - 1, x) for k in range(1, modes + 1)]
    phi_e = np.array([z.phi_sq for z in even])
    phi_o = np.array([z.phi_sq for z in odd])
    vs = weight_cached(x, batch_size(2 * modes))
    we = np.array([vs[z.mu - 1] * math.exp(-rho * z.gamma) for z in even])
    wo = np.array([vs[z.mu - 1] * math.exp(-rho * z.gamma) for z in odd])
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
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_rho(rho)
    num = 0.0
    den = 1.0
    for term in _terms_up_to(x, N):
        w = term.a * math.exp(-rho * term.gamma_sum)
        num -= term.gamma_sum * w
        den += w
    return num / den


def critical_series_coefficients(N: int) -> list[float]:
    """Coefficients of exp(-2 pi rho n) in Sigma at x = 0, for n = 1..N.

    Built from the exact closed-form weights; the first five are the
    rationals 1/4, 13/32, 55/128, 1235/2048, 4615/8192.
    """
    out = []
    for n in range(1, N + 1):
        out.append(math.fsum(amplitude(s, 0.0).a for s in enumerate_sets(n)))
    return out
