"""Non-finite and non-integer arguments raise at the library's boundaries."""

import math

import numpy as np
import pytest

from casimir_rect import roots, specialfn, thermo_constants, weights

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, error", [
    (lambda: roots.eval_char_poly(NAN, 1.0), ValueError),
    (lambda: roots.eval_char_poly(1.0, INF), ValueError),
    (lambda: roots.zero_series_approx(3, NAN, 2), ValueError),
    (lambda: roots.zero_series_approx(3, INF, 2), ValueError),
    (lambda: specialfn.eisenstein_E2(NAN), ValueError),
    (lambda: specialfn.eisenstein_E2(INF), ValueError),
    (lambda: specialfn.log_q_pochhammer(NAN), ValueError),
    (lambda: specialfn.log_dedekind_eta(NAN), ValueError),
    (lambda: specialfn.log_dedekind_eta(INF), ValueError),
    (lambda: specialfn.euler_beta(NAN, 0.5), ValueError),
    (lambda: specialfn.euler_beta(INF, 0.5), ValueError),
    (lambda: specialfn.dilog(NAN), ValueError),
    (lambda: specialfn.divisor_sigma(2.5), TypeError),
    (lambda: weights.counting_integrand(2.0, NAN), ValueError),
    (lambda: thermo_constants.corner_free_energy(NAN), ValueError),
    (lambda: thermo_constants.corner_free_energy(INF), ValueError),
    (lambda: thermo_constants.surface_free_energy(NAN), ValueError),
    (lambda: thermo_constants.surface_free_energy(INF), ValueError),
], ids=["eval_char_poly-nan", "eval_char_poly-x-inf", "zero_series-nan", "zero_series-inf",
        "E2-nan", "E2-inf", "pochhammer-nan", "eta-nan", "eta-inf", "beta-nan", "beta-inf",
        "dilog-nan", "divisor_sigma-2.5", "counting_integrand-nan", "corner-nan",
        "corner-inf", "surface-nan", "surface-inf"])
def test_rejected(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda mu: roots.find_zero(mu, 0.0),
    lambda mu: roots.find_zero(mu, -2.0),
    lambda mu: roots.zero_series_approx(mu, 1.0, 2),
    lambda mu: weights.weight_v_closed_x0(mu),
], ids=["find_zero-x0", "find_zero", "zero_series", "weight_closed_x0"])
@pytest.mark.parametrize("mu", [NAN, 2.5, 3.0, 0, "3"])
def test_mode_index_must_be_integer_at_least_one(call, mu):
    # comparisons such as mu < 1 let NaN, non-integers and 3.0 through
    with pytest.raises(ValueError, match=r"mu must be >= 1 and an integer"):
        call(mu)


@pytest.mark.parametrize("mu", [np.int64(3), np.int32(3), 3])
def test_mode_index_accepts_numpy_integers(mu):
    assert roots.find_zero(mu, 0.5) == roots.find_zero(3, 0.5)
    assert roots.zero_series_approx(mu, 1.0, 2) == roots.zero_series_approx(3, 1.0, 2)
    assert weights.weight_v_closed_x0(mu).v == weights.weight_v_closed_x0(3).v
