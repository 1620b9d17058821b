"""Total Casimir potential and force scaling functions on the rectangle.

The potential decomposes into the strip part, a rho-independent
surface-corner part theta_sc(x), and the residual strip contribution,

    theta_total(x, rho) = theta_oo(x) + theta_sc(x)/rho + Psi(x, rho),

valid for rho >= 1; smaller aspect ratios go through the exchange symmetry
theta(x, rho) = rho^-2 theta(x rho, 1/rho).  Every series is sigma's, at
DEFAULT_ORDER.  The surface-corner part is built at rho = 1 from the square
symmetry, which turns the volume potential into two one-dimensional
integrals: a dilogarithm integral I1 over the strip potential and an
integral I2 over the strip force at unit aspect ratio.  Both carry the
corner-induced log divergence at x = 0, so the potential itself is undefined
there; the finite critical information lives in the Casimir amplitude, one
quarter of the log of the Dedekind eta function.

The force scaling function is finite everywhere,

    vartheta_total(x, rho) = -theta_oo(x) + psi(x, rho)        (rho >= 1)

and for rho < 1 through the exchanged-direction expression built from the
strip force function and the combination x*theta_sc'(x), which stays finite
at x = 0 (it tends to -1/8, the corner log amplitude).  That expression
needs psi and x dPsi/dx at u = x rho for aspect ratios 1 and 1/rho;
sigma's stencil readers give all four from the series terms at the
derivative nodes of u, cached per block of u and built four u to a batch.
At the critical point the force changes sign at the aspect ratio where the
weight-two Eisenstein series vanishes on the imaginary axis.

Each point's region is decided once, by _regime, before any zero or
weight.  In the ordered phase, from x = -64 down, theta_sc is -log 2 and
the series term lies below half an ulp, so the potential needs neither.
The force reads only the rho checks: it is finite at x = 0 and has no floor.

theta_column(x, rhos) evaluates one x across many aspect ratios:
theta_oo(x) is computed once and only the series term depends on rho;
theta_total is its one-rho case.  vartheta_grid(xs, rhos) evaluates a force
table: theta_oo(x) once per x for rho >= 1, and the points below rho = 1 by
their distinct u = x rho, whose strip integrals run as one lockstep
quadrature and whose stencil entries serve every rho.  vartheta_total is
its one-point case, with the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import quad, sigma, strip
from .quad import QuadratureSpec
from .roots import solve_bracket
from .sigma import DEFAULT_ORDER
from .specialfn import _finite, dilog, eisenstein_E2, log_dedekind_eta
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
    "vartheta_grid",
    "casimir_amplitude",
    "find_rho0",
    "lattice_to_scaling",
]

I_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=5e-12)
# I1 is the sum of two integrals, each held to half the absolute tolerance
_I1_PART_SPEC = QuadratureSpec(rel_tol=I_SPEC.rel_tol, abs_tol=0.5 * I_SPEC.abs_tol)
# the smallest |x| at which I1, and so the potential, is evaluated
_X_FLOOR = 1e-300
# psi(xi, 1) decays like e^{0.96 xi} toward xi -> -inf (psi(-60, 1) = -2.4e-23), so
# from here down I2's tail lies far below half an ulp of log 2 and I2 is the
# ordered-phase constant alone; its integrand's weights overflow from about -346.3
_I2_ORDERED_FROM = -64.0


class _Point(NamedTuple):
    x: float
    rho: float


class ScalingPoint(_Point):
    """Temperature scaling variable and aspect ratio of one system."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.x):
            raise ValueError(f"scaling variable must be finite, got {self.x}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError("aspect ratio must be positive and finite")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def _regime(x: float | None, rho: float) -> str | None:
    """Region of the point (x, rho), decided before any zero or weight.

    In this order, with u = x min(rho, 1), the point where I1 is evaluated:
    - ValueError unless rho > 0 is finite and x is finite;
    - OverflowError where rho^2 is 0.0: rho^-2 carries any value out of the
      doubles;
    - None where x is None: the force is finite at x = 0 and has no floor,
      so its grid reads only the rho checks above;
    - ValueError at x = 0, the potential's corner log divergence;
    - ValueError where |u| < _X_FLOOR, beyond I1's reach in doubles;
    - "ordered" where u <= _I2_ORDERED_FROM: theta_sc is -log 2 there;
    - "spectral" otherwise.
    """
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if x is not None and not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if rho * rho == 0.0:
        raise OverflowError(f"rho^-2 times the exchanged value at rho = {rho} "
                            "overflows the doubles")
    if x is None:
        return None
    if x == 0.0:
        raise ValueError("divergent at x = 0; see casimir_amplitude")
    u = x * min(rho, 1.0)
    if abs(u) < _X_FLOOR:
        raise ValueError(f"|{'x rho' if rho < 1.0 else 'x'}| < {_X_FLOOR} is beyond double "
                         f"precision here, got x = {x}, rho = {rho}")
    return "ordered" if u <= _I2_ORDERED_FROM else "spectral"


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
    double for |x_vol| >= 1e-300; closer to zero _regime rejects it.
    """
    _regime(x_vol, 1.0)
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
    is undone in closed form (from |x| = S on it is never made) so that the
    remaining integrand decays exponentially (the subtraction term alone
    would leave a polynomial tail).  Integrating toward -inf for x < 0
    starts from the ordered phase, whose two degenerate states contribute
    the boundary constant -log 2; together with the changed limit this
    produces the jump 2C - (3/2) log 2 across x_vol = 0 (C = Catalan's
    constant).  For |x| < 1 the log term is log1p(x^2) - 2 log|x|, since
    x^-2 overflows near x = 0.  psi(xi, 1) is the series at DEFAULT_ORDER,
    as for theta_sc; its nodes are used once, so each integrand call takes
    psi at all of its nodes from one uncached sigma.psi_strip_batch.
    From x_vol = -64 down, _regime's ordered phase, I2 is -log 2 to the last
    bit, and no integral runs.
    """
    if _regime(x_vol, 1.0) == "ordered":
        return -math.log(2.0)
    sgn = 1.0 if x_vol > 0.0 else -1.0
    h = abs(x_vol)
    ordered = -math.log(2.0) if x_vol < 0.0 else 0.0

    def psi1(eta: np.ndarray) -> np.ndarray:
        return np.array(sigma.psi_strip_batch((sgn * eta).tolist()))

    def far(eta: np.ndarray) -> np.ndarray:
        return 2.0 * psi1(eta) / eta

    if h >= _I2_SPLIT:
        return ordered + quad.integrate_semi_infinite(far, h, I_SPEC)

    psi0 = sigma.psi_strip(0.0, 1.0, DEFAULT_ORDER)
    log_term = math.log1p(h * h) - 2.0 * math.log(h) if h < 1.0 else math.log1p(1.0 / (h * h))
    total = psi0 * log_term + ordered

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
    theta_sc(x) = -theta_oo(x) - Psi(x, 1) + theta_volume(x, 1).
    Carries the -log|x|/8 divergence and the -(3/4) log 2 * sign(x) jump;
    tends to 0 for x -> +inf and is the ordered-phase constant -log 2 from
    x = -64 down, where I2 is -log 2 and the other terms lie below half its
    ulp; there, in _regime's ordered phase, it is returned at once, without
    zeros or weights.
    """
    if _regime(x, 1.0) == "ordered":
        return -math.log(2.0)
    return -strip.theta_oo(x) - sigma.Psi(x, 1.0, DEFAULT_ORDER) + theta_volume_rho1(x)


def x_dtheta_sc(x):
    """The finite combination x * theta_sc'(x).

    From the square symmetry,
    x theta_sc'(x) = theta_oo(x) + vartheta_oo(x) - 2 psi(x,1)
                     - x dPsi/dx(x,1);
    unlike theta_sc itself this stays finite at x = 0, where it equals
    -1/8 (the corner log amplitude).  Like theta_sc, at DEFAULT_ORDER; the
    last two terms come from sigma.psi_with_x_dPsi_dx_readers.  x is a
    float, or a sequence giving a list, whose strip integrals run as one
    lockstep each.
    """
    xs = [x] if isinstance(x, Real) else list(x)
    out = []
    for oo, voo, at in zip(strip.theta_oo(xs), strip.vartheta_oo(xs),
                           sigma.psi_with_x_dPsi_dx_readers(xs, DEFAULT_ORDER)):
        psi, x_dPsi_dx = at(1.0)
        out.append(oo + voo - 2.0 * psi - x_dPsi_dx)
    return out[0] if isinstance(x, Real) else out


def theta_total(x: float, rho: float) -> float:
    """Casimir potential scaling function theta(x, rho).

    Undefined at x = 0 for finite rho (logarithmic corner divergence); the
    finite critical quantity is casimir_amplitude.  For rho < 1 the
    exchange symmetry theta(x, rho) = rho^-2 theta(x rho, 1/rho) is used;
    from rho ~ 2e-155 down, rho^-2 overflows it (OverflowError), and
    |x rho| < 1e-300 raises ValueError.
    """
    return theta_column(x, (rho,))[0]


def theta_column(x: float, rhos: Sequence[float]) -> list[float]:
    """theta_total(x, rho) for each rho, with theta_oo(x) evaluated once.

    The strip part is computed first, where some rho >= 1 needs it; then
    each rho in order has its _regime decided and its value evaluated, so
    the first point that fails raises.  rho < 1 goes through the exchange
    symmetry.  In the ordered phase, from x = -64 down, rho >= 1 gives
    theta_oo(x) - log(2)/rho: Psi(x, rho), of order exp(-rho |x|), lies
    below half an ulp of that sum (checked down to x = -356, where the
    weights still evaluate), so no zero or weight is evaluated there.
    """
    oo = strip.theta_oo(x) if any(rho >= 1.0 for rho in rhos) else None

    def at(rho: float) -> float:
        regime = _regime(x, rho)
        if rho < 1.0:
            return _exchanged(theta_total(x * rho, 1.0 / rho), rho)
        value = oo + theta_sc(x) / rho
        return value if regime == "ordered" else value + sigma.Psi(x, rho, DEFAULT_ORDER)

    return [at(rho) for rho in rhos]


def _exchanged(value: float, rho: float) -> float:
    """value / rho^2, mapped back to rho < 1 from the exchanged direction."""
    return _finite(value / (rho * rho), f"rho^-2 times the exchanged value at rho = {rho}")


def vartheta_total(x: float, rho: float, N: int = DEFAULT_ORDER) -> float:
    """Casimir force scaling function vartheta(x, rho), finite at x = 0.

    For rho >= 1: -theta_oo(x) + psi(x, rho).  For rho < 1 the force is
    computed in the exchanged direction, where the series converges, and
    mapped back:

    vartheta(x, rho) = rho^-2 [ vartheta_oo(u) - rho * (u theta_sc'(u))
                                - u dPsi/dx(u, 1/rho) - psi(u, 1/rho) ],
    with u = x rho.  Both branches agree identically at rho = 1.  Like
    theta_total, from rho ~ 2e-155 down it raises OverflowError.
    """
    return vartheta_grid([x], [rho], N)[0][0]


def vartheta_grid(xs: Sequence[float], rhos: Sequence[float],
                  N: int = DEFAULT_ORDER) -> list[list[float]]:
    """[vartheta_total(x, rho) for rho in rhos] for each x of xs, bit for bit.

    rho >= 1 goes per x: theta_oo(x) once, then psi(x, rho); N truncates
    only the rho-dependent series.  Below rho = 1 the points go by their
    distinct u = x rho in blocks of 128: a block's strip integrals run as
    one lockstep per function, its stencils are one entry of sigma's
    stencil cache, built four u to a series batch, and each u's stencil
    serves all its points.  Each rho's _regime checks run before anything
    is evaluated.  Where the grid fails, each point is evaluated alone,
    x outer, theta_oo(x) first where some rho >= 1, then rho in order; the
    first that fails raises.
    """
    high = any(rho >= 1.0 for rho in rhos)
    try:
        at_u: dict[float, list[tuple[int, int]]] = {}
        for j, rho in enumerate(rhos):
            _regime(None, rho)
            if rho < 1.0:
                for i, x in enumerate(xs):
                    at_u.setdefault(x * rho, []).append((i, j))
        oos = [strip.theta_oo(x) if high else None for x in xs]
        out = [[-oo + sigma.psi_strip(x, rho, N) if rho >= 1.0 else None for rho in rhos]
               for x, oo in zip(xs, oos)]
        us = list(at_u)
        for start in range(0, len(us), 128):
            block = us[start:start + 128]
            # +0.0 and -0.0 share an entry: no term below depends on the sign of u = 0
            for u, voo, xd, at in zip(block, strip.vartheta_oo(block), x_dtheta_sc(block),
                                      sigma.psi_with_x_dPsi_dx_readers(block, N)):
                for i, j in at_u[u]:
                    rho = rhos[j]
                    psi, x_dPsi_dx = at(1.0 / rho)
                    out[i][j] = _exchanged(voo - rho * xd - psi - x_dPsi_dx, rho)
        return out
    except (ArithmeticError, RuntimeError, ValueError):
        if len(xs) * len(rhos) > 1:
            for x in xs:
                if high:
                    strip.theta_oo(x)
                for rho in rhos:
                    vartheta_grid([x], [rho], N)
        raise


def casimir_amplitude(rho: float) -> float:
    """Finite critical Casimir amplitude, log(eta(i rho))/4.

    The equivalent route rho*(theta_oo(0) + Psi(0, rho)) is evaluated
    as a consistency check whenever the series is in its validity range, to
    1e-11 plus 1e-14 relative, as the value grows like -pi*rho/48.
    """
    value = 0.25 * log_dedekind_eta(rho)
    if rho >= sigma.MIN_RHO:
        other = rho * (strip.theta_oo(0.0) + sigma.Psi(0.0, rho, DEFAULT_ORDER + 2))
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

    x = 2M(1 - z/z_c) with z_c = sqrt(2) - 1, and rho = L/M.  ValueError for
    z outside (0, 1), for extents that are not positive integers, and where
    M or L/M exceeds the largest double.
    """
    if not 0.0 < z < 1.0:
        raise ValueError("coupling parameter must satisfy 0 < z < 1")
    if not (isinstance(L, Integral) and isinstance(M, Integral) and L >= 1 and M >= 1):
        raise ValueError("lattice extents must be positive integers")
    try:
        return ScalingPoint(x=2.0 * M * (1.0 - z / Z_CRITICAL), rho=L / M)
    except OverflowError:  # int -> float conversion of M or L/M
        raise ValueError("lattice extents must keep M and L/M within the doubles") from None
