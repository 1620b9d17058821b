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
taken analytically on the series (log Sigma is taken in _Psi alone, for
Psi, the stencil's Psi and casimir); psi_strip_batch gives the unit-aspect
psi(x, 1) at many x that are used once, past the caches; and
psi_with_x_dPsi_dx_readers gives psi with x dPsi/dx, a Richardson-refined
central difference, at many x from the terms at five nodes per x, held in
one cache entry so that every rho reads them and built four x (twenty
nodes) to a batch.  All build their terms in _terms_batch, which holds the
one first-failure rule: where a batch's terms fail, it raises what its
first failing x raises alone.  The terms at one x are held as two flat
array('d')s in step, the amplitudes a_s and the exponents Gamma_s: a fifth
of the memory of a tuple per term, which counts in the caches.  The package
sums the series to DEFAULT_ORDER, and it holds for rho >= MIN_RHO.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable
from functools import lru_cache, partial
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import roots
from .weights import batch_size, weight_batch, weight_cached

__all__ = [
    "DEFAULT_ORDER",
    "MIN_RHO",
    "SubsetTerm",
    "SigmaResult",
    "enumerate_sets",
    "amplitude",
    "sigma_series",
    "sigma_det",
    "Psi",
    "psi_strip",
    "psi_strip_batch",
    "psi_with_x_dPsi_dx_readers",
    "critical_series_coefficients",
]

DEFAULT_ORDER = 8
MIN_RHO = 0.5


class SubsetTerm(NamedTuple):
    """One term of the balanced-subset series."""

    a: float
    gamma_sum: float


class SigmaResult(NamedTuple):
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


def _build_terms(zeros, vs, N: int) -> tuple[array, array]:
    """The series terms to order N from the zeros and weights v_1, v_2, ...
    of modes 1..2N at one x, bit for bit amplitude's values; within an order
    by decreasing Gamma_s, so the smallest is added last."""
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
    amps, gamma_sums = zip(*out)
    return array("d", amps), array("d", gamma_sums)


@lru_cache(maxsize=256, typed=True)
def _terms_up_to(x: float, N: int) -> tuple[array, array]:
    zeros = [roots.zero_cached(m, x) for m in range(1, 2 * N + 1)]
    return _build_terms(zeros, weight_cached(x, batch_size(2 * N)), N)


def _require_rho(rho: float) -> None:
    if not rho >= MIN_RHO:
        raise ValueError(f"rho = {rho} below {MIN_RHO}; use the exchange symmetry at the "
                         "potential/force level instead")


def _sums(terms: tuple[array, array], rho: float) -> tuple[float, float]:
    """The force numerator -sum_s Gamma_s a_s exp(-rho Gamma_s) and Sigma^(N),
    accumulated in one pass over the series terms."""
    exp, neg_rho = math.exp, -rho  # bound once: the tables' innermost loop
    num = 0.0
    den = 1.0
    for a, gamma_sum in zip(*terms):
        w = a * exp(neg_rho * gamma_sum)
        num -= gamma_sum * w
        den += w
    return num, den


def _series_sums(x: float, rho: float, N: int) -> tuple[float, float]:
    if N < 1:
        raise ValueError("N must be >= 1")
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


def _Psi(sums: tuple[float, float], rho: float) -> float:
    """-log(Sigma)/rho from the sums (num, Sigma) of _sums: the one place log Sigma is taken."""
    return -math.log(sums[1]) / rho


def Psi(x: float, rho: float, N: int) -> float:
    """Strip potential scaling function -log(Sigma)/rho from the series."""
    return _Psi(_series_sums(x, rho, N), rho)


def psi_strip(x: float, rho: float, N: int) -> float:
    """Strip force scaling function d(log Sigma)/d(rho).

    The rho-derivative is taken analytically on the series:
    psi = -(sum_s a_s Gamma_s exp(-rho Gamma_s)) / Sigma^(N).
    """
    num, den = _series_sums(x, rho, N)
    return num / den


def _terms_batch(xs, N: int) -> list[tuple[array, array]]:
    """_terms_up_to(x, N) for each x of xs, bit for bit, uncached: each x's
    zeros serve its weights and its terms, and the zeros and weights of all
    x run as one batch each.  The batch may meet a later x's failure first,
    so where it fails each x is rebuilt alone, in order, and the first x that
    fails alone raises; if none does, the batch's error is raised."""
    try:
        zeros = roots.zeros_batch(xs, 2 * N)
        return [_build_terms(zs, vs, N) for zs, vs in zip(zeros, weight_batch(xs, zeros))]
    except (ArithmeticError, RuntimeError, ValueError):
        if len(xs) > 1:
            for x in xs:
                _terms_batch([x], N)
        raise


def psi_strip_batch(xs) -> list[float]:
    """psi_strip(x, 1.0, DEFAULT_ORDER) for each x of xs, bit for bit, uncached.

    For x used once, such as I2's quadrature nodes: the terms of all x come
    from one _terms_batch, which raises as the first failing x alone.
    """
    sums = [_sums(terms, 1.0) for terms in _terms_batch(xs, DEFAULT_ORDER)]
    return [num / den for num, den in sums]


def _step(x: float) -> float:
    return max(1e-4, 1e-4 * abs(x))


def _stencil_nodes(x: float) -> list[float]:
    h = _step(x)
    return [x] if x == 0.0 else [x, x + h / 2.0, x - h / 2.0, x + h, x - h]


# u per series batch: 20 nodes, 320 weight integrals, 640 panels (five whole
# quadrature blocks) in a bisection round
_STENCIL_CHUNK = 4


@lru_cache(maxsize=2, typed=True)
def _stencil_terms(us: tuple[float, ...], N: int) -> tuple[tuple[tuple[array, array], ...], ...]:
    """The stencil of each u of us: the series terms to order N at the nodes
    [u, u + h/2, u - h/2, u + h, u - h] of the u-derivative, h = _step(u);
    at u = 0, where the derivative term vanishes, at [u] alone.

    The stencils of _STENCIL_CHUNK u at a time are one _terms_batch over
    their nodes in order, so the first failing u raises what its stencil
    raises alone.  An entry holds a whole tuple of u, about 6.4 KB per
    stencil at order 8; a force table's blocks of 128 u fill both entries
    with about 1.6 MB.
    """
    out = []
    for start in range(0, len(us), _STENCIL_CHUNK):
        nodes = [_stencil_nodes(u) for u in us[start:start + _STENCIL_CHUNK]]
        terms = iter(_terms_batch([x for xs in nodes for x in xs], N))
        out += [tuple(islice(terms, len(xs))) for xs in nodes]
    return tuple(out)


def _psi_pair(stencil, x: float, rho: float) -> tuple[float, float]:
    """(psi, x dPsi/dx) at rho from the stencil of x; see psi_with_x_dPsi_dx_readers."""
    _require_rho(rho)
    at_x, *others = stencil
    num, den = _sums(at_x, rho)
    psi = num / den
    if not others:  # x = 0
        return psi, 0.0
    Psi = [_Psi(_sums(terms, rho), rho) for terms in others]
    h = _step(x)
    d_half = (Psi[0] - Psi[1]) / (2.0 * (h / 2.0))
    d_full = (Psi[2] - Psi[3]) / (2.0 * h)
    return psi, x * ((4.0 * d_half - d_full) / 3.0)


def psi_with_x_dPsi_dx_readers(xs, N: int) -> list[Callable[[float], tuple[float, float]]]:
    """For each x of xs, the function rho -> (psi_strip(x, rho, N), x * dPsi/dx(x, rho)).

    The derivative is the Richardson-refined central difference
    (4 d(h/2) - d(h))/3 with d(s) = (Psi(x + s) - Psi(x - s))/(2s) and
    h = _step(x), and 0 at x = 0.  The series terms at the stencils' nodes
    come from one cached entry, _stencil_terms(tuple(xs), N), so every rho
    reads them without new zeros or weights; where they fail, the first
    failing node in the stencils' order raises (see _terms_batch), here
    and not when a function is called.  Each function rejects rho below
    MIN_RHO, or NaN, with ValueError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    xs = tuple(xs)
    return [partial(_psi_pair, stencil, x) for x, stencil in zip(xs, _stencil_terms(xs, N))]


def critical_series_coefficients(N: int) -> list[float]:
    """Coefficients of exp(-2 pi rho n) in Sigma at x = 0, for n = 1..N.

    Built from the exact closed-form weights; the first five are the
    rationals 1/4, 13/32, 55/128, 1235/2048, 4615/8192.
    """
    out = []
    for n in range(1, N + 1):
        out.append(math.fsum(amplitude(s, 0.0).a for s in enumerate_sets(n)))
    return out
