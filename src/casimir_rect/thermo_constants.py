"""Near-critical expansions of the corner and surface free energies.

The isotropic corner free energy diverges logarithmically at the critical
point and jumps between the two phases,

    f_c(tau) = (1/8) log|tau| - (2/pi) C + (9/16) log 2
               + (3/4) log 2 * sign(tau) + O(tau),

with Catalan's constant C and reduced temperature tau = 1 - z/z_c.  The
surface free energy is finite at criticality with an exactly known value
built from s-derivatives of the Hurwitz zeta function.  Expansions are
evaluated as written, term-labeled, with no resummation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specialfn import catalan_constant, hurwitz_zeta_sderiv_neg1

__all__ = [
    "ExpansionResult",
    "corner_free_energy",
    "surface_free_energy",
    "surface_critical_value",
    "Z_CRITICAL",
]

Z_CRITICAL = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class ExpansionResult:
    """Evaluated truncated expansion with its labeled contributions."""

    value: float
    terms: dict[str, float]


def corner_free_energy(tau: float) -> ExpansionResult:
    """Corner free energy near criticality, term-labeled; tau = 0 and
    non-finite tau rejected."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau == 0.0:
        raise ValueError("corner free energy diverges logarithmically at tau = 0")
    terms = {
        "log": 0.125 * math.log(abs(tau)),
        "constant": -2.0 / math.pi * catalan_constant() + 9.0 / 16.0 * math.log(2.0),
        "jump": 0.75 * math.log(2.0) * math.copysign(1.0, tau),
    }
    return ExpansionResult(value=math.fsum(terms.values()), terms=terms)


def surface_free_energy(tau: float) -> ExpansionResult:
    """Surface free energy near criticality through first order in tau."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    terms = {"constant": surface_critical_value()}
    if tau != 0.0:
        terms["abs_linear"] = 0.5 * abs(tau)
        terms["linear"] = (0.25 - 1.5 * math.log(2.0) / math.pi
                           + (math.log(abs(tau)) - 1.0) / math.pi) * tau
    return ExpansionResult(value=math.fsum(terms.values()), terms=terms)


def surface_critical_value() -> float:
    """Exact critical surface free energy 0.1817314169844...

    -(3/4) log(z_c) - 2 [zeta'(-1,1/8) + zeta'(-1,3/8)
                         - zeta'(-1,5/8) - zeta'(-1,7/8)].
    """
    bracket = (hurwitz_zeta_sderiv_neg1(0.125) + hurwitz_zeta_sderiv_neg1(0.375)
               - hurwitz_zeta_sderiv_neg1(0.625) - hurwitz_zeta_sderiv_neg1(0.875))
    return -0.75 * math.log(Z_CRITICAL) - 2.0 * bracket
