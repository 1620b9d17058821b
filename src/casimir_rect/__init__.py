"""Exact universal Casimir scaling functions for the critical 2D Ising rectangle.

The package evaluates, to essentially machine precision, the universal
finite-size scaling functions of the Casimir potential and Casimir force
for the two-dimensional Ising universality class on an open rectangle:
the zero spectrum of the underlying dispersion function, the mode weights,
the strip residual partition function by series and determinant routes,
the strip and surface-corner contributions, the critical q-series closed
forms, and the near-critical corner and surface free-energy constants.
"""

__version__ = "0.1.0"

from .casimir import (
    ScalingPoint,
    casimir_amplitude,
    find_rho0,
    integral_I1,
    integral_I2,
    lattice_to_scaling,
    theta_sc,
    theta_total,
    theta_volume_rho1,
    vartheta_total,
    x_dtheta_sc,
)
from .effspin import EffectiveModel, build_model, enumerate_partition, magnetization
from .quad import (
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    integrate_sqrt_singularity,
)
from .roots import (
    RootFindError,
    ZeroRecord,
    eval_char_poly,
    find_zero,
    find_zeros,
    zero_series_approx,
)
from .sigma import (
    Psi,
    SigmaResult,
    SubsetTerm,
    amplitude,
    critical_series_coefficients,
    enumerate_sets,
    psi_strip,
    sigma_det,
    sigma_series,
)
from .specialfn import (
    catalan_constant,
    dilog,
    divisor_sigma,
    eisenstein_E2,
    euler_beta,
    hurwitz_zeta_sderiv_neg1,
    log_dedekind_eta,
    log_q_pochhammer,
)
from .strip import theta_oo, vartheta_oo
from .thermo_constants import (
    ExpansionResult,
    corner_free_energy,
    surface_critical_value,
    surface_free_energy,
)
from .weights import (
    WeightRecord,
    counting_integrand,
    weight,
    weight_v,
    weight_v_closed_x0,
)
