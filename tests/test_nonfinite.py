"""Non-finite and non-integer arguments raise at the library's boundaries."""

import math

import numpy as np
import pytest

from casimir_rect import casimir, effspin, roots, specialfn, thermo_constants, weights

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, error", [
    (lambda: specialfn.eisenstein_E2(NAN), ValueError),
    (lambda: specialfn.eisenstein_E2(INF), ValueError),
    (lambda: specialfn.log_q_pochhammer(NAN), ValueError),
    (lambda: specialfn.log_dedekind_eta(NAN), ValueError),
    (lambda: specialfn.log_dedekind_eta(INF), ValueError),
    (lambda: specialfn.euler_beta(NAN, 0.5), ValueError),
    (lambda: specialfn.euler_beta(INF, 0.5), ValueError),
    (lambda: specialfn.dilog(NAN), ValueError),
    (lambda: specialfn.divisor_sigma(2.5), TypeError),
    (lambda: thermo_constants.corner_free_energy(NAN), ValueError),
    (lambda: thermo_constants.corner_free_energy(INF), ValueError),
    (lambda: thermo_constants.surface_free_energy(NAN), ValueError),
    (lambda: thermo_constants.surface_free_energy(INF), ValueError),
    (lambda: effspin.enumerate_partition(effspin.build_model(1.0, 4), NAN), ValueError),
    (lambda: effspin.enumerate_partition(effspin.build_model(1.0, 4), 0.0), ValueError),
    (lambda: effspin.matched_series(1.0, NAN, 4), ValueError),
    (lambda: effspin.matched_series(1.0, INF, 4), ValueError),
    (lambda: effspin.magnetization(effspin.build_model(1.0, 4), -1.0), ValueError),
    (lambda: effspin.magnetization(effspin.build_model(1.0, 4), NAN), ValueError),
    (lambda: casimir.ScalingPoint(NAN, 1.0), ValueError),
    (lambda: casimir.ScalingPoint(-INF, 1.0), ValueError),
    (lambda: casimir.lattice_to_scaling(0.4, 10**400, 3), ValueError),
    (lambda: casimir.lattice_to_scaling(0.4, 3, 10**400), ValueError),
], ids=["E2-nan", "E2-inf", "pochhammer-nan", "eta-nan", "eta-inf", "beta-nan", "beta-inf",
        "dilog-nan", "divisor_sigma-2.5", "corner-nan", "corner-inf", "surface-nan",
        "surface-inf", "enumerate_partition-nan", "enumerate_partition-0",
        "matched_series-nan", "matched_series-inf", "magnetization-negative",
        "magnetization-nan", "ScalingPoint-nan", "ScalingPoint-inf",
        "lattice_to_scaling-L-1e400", "lattice_to_scaling-M-1e400"])
def test_rejected(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda mu: roots.find_zero(mu, 0.0),
    lambda mu: roots.find_zero(mu, -2.0),
    lambda mu: weights.weight_v_closed_x0(mu),
], ids=["find_zero-x0", "find_zero", "weight_closed_x0"])
@pytest.mark.parametrize("mu", [NAN, 2.5, 3.0, 0, "3"])
def test_mode_index_must_be_integer_at_least_one(call, mu):
    # comparisons such as mu < 1 let NaN, non-integers and 3.0 through
    with pytest.raises(ValueError, match=r"mu must be >= 1 and an integer"):
        call(mu)


@pytest.mark.parametrize("mu", [np.int64(3), np.int32(3), 3])
def test_mode_index_accepts_numpy_integers(mu):
    assert roots.find_zero(mu, 0.5) == roots.find_zero(3, 0.5)
    assert weights.weight_v_closed_x0(mu).v == weights.weight_v_closed_x0(3).v
