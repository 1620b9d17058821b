"""Total Casimir potential and force scaling functions on the rectangle.

The potential decomposes into the strip part, a rho-independent
surface-corner part theta_sc(x), and the residual strip contribution,

    theta_total(x, rho) = theta_oo(x) + theta_sc(x)/rho + Psi(x, rho),

valid for rho >= 1; smaller aspect ratios go through the exchange symmetry
theta(x, rho) = rho^-2 theta(x rho, 1/rho).  The surface-corner part is
built at rho = 1 from the square symmetry, which turns the volume potential
into two one-dimensional integrals: a dilogarithm integral I1 over the
strip potential and an integral I2 over the strip force at unit aspect
ratio.  Both carry the corner-induced log divergence at x = 0, so the
potential itself is undefined there; the finite critical information lives
in the Casimir amplitude, one quarter of the log of the Dedekind eta
function.

The force scaling function is finite everywhere,

    vartheta_total(x, rho) = -theta_oo(x) + psi(x, rho)        (rho >= 1)

and for rho < 1 through the exchanged-direction expression built from the
strip force function and the combination x*theta_sc'(x), which stays finite
at x = 0 (it tends to -1/8, the corner log amplitude).  At the critical
point the force changes sign at the aspect ratio where the weight-two
Eisenstein series vanishes on the imaginary axis.

theta_column(x, rhos) and vartheta_column(x, rhos) evaluate one x across
many aspect ratios: theta_oo(x) is computed once and only the series term
depends on rho.  theta_total and vartheta_total are their one-rho case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import quad, sigma, strip
from .quad import QuadratureSpec
from .roots import solve_bracket
from .specialfn import dilog, eisenstein_E2, log_dedekind_eta
from .thermo_constants import Z_CRITICAL

__all__ = [
    "ScalingPoint",
    "Z_CRITICAL",
    "DEFAULT_ORDER",
    "integral_I1",
    "integral_I2",
    "theta_volume_rho1",
    "theta_sc",
    "x_dtheta_sc",
    "theta_total",
    "theta_column",
    "vartheta_total",
    "vartheta_column",
    "casimir_amplitude",
    "find_rho0",
    "lattice_to_scaling",
]

DEFAULT_ORDER = 8

I_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=5e-12)
# I1 is the sum of two integrals, each held to half the absolute tolerance
_I1_PART_SPEC = QuadratureSpec(rel_tol=I_SPEC.rel_tol, abs_tol=0.5 * I_SPEC.abs_tol)


@dataclass(frozen=True)
class ScalingPoint:
    """Temperature scaling variable and aspect ratio of one system.

    The derived combinations x_volume = x sqrt(rho) and x_perp = x rho are
    the scaling variables tied to the geometric-mean length and to the
    perpendicular length.
    """

    x: float
    rho: float

    def __post_init__(self):
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError("aspect ratio must be positive and finite")

    @property
    def x_volume(self) -> float:
        return self.x * math.sqrt(self.rho)

    @property
    def x_perp(self) -> float:
        return self.x * self.rho


def _require_finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"arguments must be finite, got {values}")


def _require_positive(rhos: Sequence[float]) -> None:
    if not all(rho > 0.0 for rho in rhos):
        raise ValueError("rho must be positive")


def integral_I1(x_vol: float) -> float:
    """Dilogarithm integral over the strip potential.

    I1 = -(1/2pi) Int_{|x|}^inf dW (W^2-x^2)^{-1/2} Li2(-r(W) e^{-2W}) with
    r = (W-x)/(W+x), after the substitution W = sqrt(x^2+s^2).  Diverges
    logarithmically at x_vol = 0 (rejected); the jump across zero is twice
    Catalan's constant.  The head s in (0, 1] is a plain integral only for
    x >= 1.  Otherwise the integrand has a layer of width |x| at s = 0, an
    integrable squared log for x < 0 and a peak of height ~1/x for
    0 < x < 1; in the variable s = e^{-u} it sits at u ~ -log|x|, so the
    head runs in u to 52 past that point.  That keeps s = e^{-u} a positive
    double for |x_vol| >= 1e-300; closer to zero I1 is rejected.
    """
    _require_finite(x_vol)
    if x_vol == 0.0:
        raise ValueError("logarithmically divergent at x_vol = 0")
    if abs(x_vol) < 1e-300:
        raise ValueError(f"|x_vol| < 1e-300 is beyond double precision here, got {x_vol}")
    x = x_vol

    def integrand(s: np.ndarray) -> np.ndarray:
        return dilog(-strip.decay_factor(s, x)) / np.hypot(s, x)

    tail = quad.integrate_finite(integrand, 1.0, abs(x) + 32.0, _I1_PART_SPEC)
    if x >= 1.0:
        head = quad.integrate_finite(integrand, 0.0, 1.0, _I1_PART_SPEC)
    else:
        # map (0, 1] to [0, u_max) via s = e^{-u}; past the layer the
        # integrand decays at least like u^2 e^{-u}
        def transformed(u: np.ndarray) -> np.ndarray:
            s = np.exp(-u)
            return integrand(s) * s

        u_max = 52.0 + max(0.0, -math.log(abs(x)))
        head = quad.integrate_finite(transformed, 0.0, u_max, _I1_PART_SPEC)
    return -(head + tail) / (2.0 * math.pi)


_I2_SPLIT = 4.0


def integral_I2(x_vol: float) -> float:
    """Integral of the unit-aspect strip force against the log kernel.

    I2 = psi(0,1) log(1+x^-2)
         + 2 Int_x^{sign(x) inf} dxi [psi(xi,1) - psi(0,1)/(1+xi^2)] / xi
         - log(2) * [x < 0].

    The regularized integrand is used on [|x|, S]; beyond S the subtraction
    is undone in closed form so that the remaining integrand decays
    exponentially (the subtraction term alone would leave a polynomial
    tail).  Integrating toward -inf for x < 0 starts from the ordered
    phase, whose two degenerate states contribute the boundary constant
    -log 2; together with the changed limit this produces the jump
    2C - (3/2) log 2 across x_vol = 0 (C = Catalan's constant).  For
    |x| < 1 the log term is log1p(x^2) - 2 log|x|, since x^-2 overflows
    near x = 0.  psi(xi, 1) is the series at DEFAULT_ORDER, as for theta_sc.
    Its nodes are used once, so each integrand call evaluates psi at all of
    its nodes as one uncached batch (sigma.psi_strip_batch), bit for bit
    psi_strip's values, and raises what psi_strip raises at the first
    failing node.
    """
    _require_finite(x_vol)
    if x_vol == 0.0:
        raise ValueError("logarithmically divergent at x_vol = 0")
    sgn = 1.0 if x_vol > 0.0 else -1.0
    h = abs(x_vol)
    psi0 = sigma.psi_strip(0.0, 1.0, DEFAULT_ORDER)
    log_term = math.log1p(h * h) - 2.0 * math.log(h) if h < 1.0 else math.log1p(1.0 / (h * h))
    total = psi0 * log_term
    if x_vol < 0.0:
        total -= math.log(2.0)

    def psi1(eta: np.ndarray) -> np.ndarray:
        return np.array(sigma.psi_strip_batch((sgn * eta).tolist(), 1.0, DEFAULT_ORDER))

    def far(eta: np.ndarray) -> np.ndarray:
        return 2.0 * psi1(eta) / eta

    if h >= _I2_SPLIT:
        return total - psi0 * math.log1p(1.0 / (h * h)) + quad.integrate_semi_infinite(
            far, h, I_SPEC)

    def near(eta: np.ndarray) -> np.ndarray:
        return 2.0 * (psi1(eta) - psi0 / (1.0 + eta * eta)) / eta

    total += quad.integrate_finite(near, h, _I2_SPLIT, I_SPEC)
    total += quad.integrate_semi_infinite(far, _I2_SPLIT, I_SPEC)
    total -= psi0 * math.log1p(1.0 / (_I2_SPLIT * _I2_SPLIT))
    return total


@lru_cache(maxsize=256, typed=True)
def theta_volume_rho1(x_vol: float) -> float:
    """Volume potential on the square, theta_volume(x, 1) = I1(x) + I2(x)."""
    return integral_I1(x_vol) + integral_I2(x_vol)


@lru_cache(maxsize=256, typed=True)
def theta_sc(x: float) -> float:
    """Surface-corner contribution, a function of x alone, cached per x.

    Assembled at unit aspect ratio, the series at DEFAULT_ORDER (bound 1.5e-22):
    theta_sc(x) = -theta_oo(x) + log Sigma(x, 1) + theta_volume(x, 1).
    Carries the -log|x|/8 divergence and the -(3/4) log 2 * sign(x) jump;
    tends to -log 2 for x -> -inf and to 0 for x -> +inf.
    """
    _require_finite(x)
    if x == 0.0:
        raise ValueError("logarithmically divergent at x = 0")
    return (-strip.theta_oo(x) + math.log(sigma.sigma_series(x, 1.0, DEFAULT_ORDER).value)
            + theta_volume_rho1(x))


def _x_dPsi_dx(x: float, rho: float, N: int) -> float:
    """x * dPsi/dx by central differences with one refinement; 0 at x = 0."""
    if x == 0.0:
        return 0.0
    h = max(1e-4, 1e-4 * abs(x))

    def d(step: float) -> float:
        return (sigma.Psi(x + step, rho, N) - sigma.Psi(x - step, rho, N)) / (2.0 * step)

    return x * ((4.0 * d(h / 2.0) - d(h)) / 3.0)


def x_dtheta_sc(x: float) -> float:
    """The finite combination x * theta_sc'(x).

    From the square symmetry,
    x theta_sc'(x) = theta_oo(x) + vartheta_oo(x) - 2 psi(x,1)
                     - x dPsi/dx(x,1);
    unlike theta_sc itself this stays finite at x = 0, where it equals
    -1/8 (the corner log amplitude).  Like theta_sc, at DEFAULT_ORDER.
    """
    _require_finite(x)
    return (strip.theta_oo(x) + strip.vartheta_oo(x) - 2.0 * sigma.psi_strip(x, 1.0, DEFAULT_ORDER)
            - _x_dPsi_dx(x, 1.0, DEFAULT_ORDER))


def theta_total(x: float, rho: float, N: int = DEFAULT_ORDER) -> float:
    """Casimir potential scaling function theta(x, rho).

    Undefined at x = 0 for finite rho (logarithmic corner divergence); the
    finite critical quantity is casimir_amplitude.  For rho < 1 the
    exchange symmetry theta(x, rho) = rho^-2 theta(x rho, 1/rho) is used.
    """
    return theta_column(x, (rho,), N)[0]


def theta_column(x: float, rhos: Sequence[float], N: int = DEFAULT_ORDER) -> list[float]:
    """theta_total(x, rho) for each rho, with theta_oo(x) evaluated once.

    The strip part is computed only when some rho >= 1 needs it; rho < 1
    goes through the exchange symmetry at each rho.  N truncates only Psi.
    """
    _require_finite(x, *rhos)
    if x == 0.0:
        raise ValueError("divergent at x = 0; see casimir_amplitude")
    _require_positive(rhos)
    oo = strip.theta_oo(x) if any(rho >= 1.0 for rho in rhos) else None
    return [oo + theta_sc(x) / rho + sigma.Psi(x, rho, N) if rho >= 1.0
            else theta_total(x * rho, 1.0 / rho, N) / (rho * rho)
            for rho in rhos]


def vartheta_total(x: float, rho: float, N: int = DEFAULT_ORDER) -> float:
    """Casimir force scaling function vartheta(x, rho), finite at x = 0.

    For rho >= 1: -theta_oo(x) + psi(x, rho).  For rho < 1 the force is
    computed in the exchanged direction, where the series converges, and
    mapped back:

    vartheta(x, rho) = rho^-2 [ vartheta_oo(u) - rho * (u theta_sc'(u))
                                - u dPsi/dx(u, 1/rho) - psi(u, 1/rho) ],
    with u = x rho.  Both branches agree identically at rho = 1.
    """
    return vartheta_column(x, (rho,), N)[0]


def vartheta_column(x: float, rhos: Sequence[float],
                    N: int = DEFAULT_ORDER) -> list[float]:
    """vartheta_total(x, rho) for each rho, with theta_oo(x) evaluated once.

    The strip part is computed only when some rho >= 1 needs it, and only
    psi(x, rho) per rho there; N truncates only the rho-dependent series.
    """
    _require_finite(x, *rhos)
    _require_positive(rhos)
    oo = strip.theta_oo(x) if any(rho >= 1.0 for rho in rhos) else None
    return [-oo + sigma.psi_strip(x, rho, N) if rho >= 1.0
            else _vartheta_exchanged(x, rho, N)
            for rho in rhos]


def _vartheta_exchanged(x: float, rho: float, N: int) -> float:
    u = x * rho
    w = 1.0 / rho
    return (strip.vartheta_oo(u) - rho * x_dtheta_sc(u) - sigma.psi_strip(u, w, N)
            - _x_dPsi_dx(u, w, N)) / (rho * rho)


def casimir_amplitude(rho: float) -> float:
    """Finite critical Casimir amplitude, log(eta(i rho))/4.

    The equivalent route rho*theta_oo(0) - log Sigma(0, rho) is evaluated
    as a consistency check whenever the series is in its validity range, to
    1e-11 plus 1e-14 relative, as the value grows like -pi*rho/48.
    """
    value = 0.25 * log_dedekind_eta(rho)
    if rho >= 0.5:
        other = (rho * strip.theta_oo(0.0)
                 - math.log(sigma.sigma_series(0.0, rho, DEFAULT_ORDER + 2).value))
        if abs(value - other) > 1e-11 + 1e-14 * abs(value):
            raise RuntimeError(
                f"amplitude routes disagree at rho={rho}: {value} vs {other}")
    return value


def find_rho0() -> float:
    """Aspect ratio where the critical Casimir force changes sign.

    Root of the weight-two Eisenstein series on the imaginary axis,
    bracketed in (0.4, 0.7) and bisected until the bracket collapses.
    """
    return solve_bracket(lambda rho: (eisenstein_E2(rho), 0.0), 0.4, 0.7, 0.0, "rho_0")


def lattice_to_scaling(z: float, L: int, M: int) -> ScalingPoint:
    """Scaling point of a lattice instance with coupling parameter z.

    x = 2M(1 - z/z_c) with z_c = sqrt(2) - 1, and rho = L/M.
    """
    if not 0.0 < z < 1.0:
        raise ValueError("coupling parameter must satisfy 0 < z < 1")
    if not (isinstance(L, Integral) and isinstance(M, Integral) and L >= 1 and M >= 1):
        raise ValueError("lattice extents must be positive integers")
    return ScalingPoint(x=2.0 * M * (1.0 - z / Z_CRITICAL), rho=L / M)
