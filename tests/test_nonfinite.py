"""Non-finite and non-integer arguments raise at the library's boundaries."""

import math

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
