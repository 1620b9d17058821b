"""Assembly-level tests: integrals, decomposition, symmetry, force branches."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_rect import casimir, roots, sigma, strip, weights
from casimir_rect.quad import QuadratureError
from casimir_rect.casimir import (
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
from casimir_rect.specialfn import (
    catalan_constant,
    eisenstein_E2,
    log_dedekind_eta,
)
from direct_route import vartheta_direct

PI = math.pi
LOG2 = math.log(2.0)
C = catalan_constant()
RHO0_REF = 0.523521700017999266800


class TestScalingPoint:
    def test_rho_validation(self):
        with pytest.raises(ValueError):
            ScalingPoint(x=0.0, rho=0.0)
        with pytest.raises(ValueError):
            ScalingPoint(x=0.0, rho=math.inf)


class TestLatticeMap:
    def test_critical_point(self):
        p = lattice_to_scaling(casimir.Z_CRITICAL, 100, 100)
        assert p.x == 0.0
        assert p.rho == 1.0

    def test_inversion(self):
        z = casimir.Z_CRITICAL * (1.0 - 1.0 / 200.0)
        p = lattice_to_scaling(z, 200, 100)
        assert p.x == pytest.approx(1.0, rel=1e-12)
        assert p.rho == 2.0

    def test_below_critical(self):
        z = casimir.Z_CRITICAL * (1.0 + 1.0 / 50.0)
        assert lattice_to_scaling(z, 10, 50).x == pytest.approx(-2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            lattice_to_scaling(1.2, 10, 10)
        with pytest.raises(ValueError):
            lattice_to_scaling(0.3, 0, 10)

    @pytest.mark.parametrize("L, M", [(2.5, 4), (4, 2.5), (4.0, 4), (math.nan, 4), (4, math.inf)])
    def test_non_integer_extents_rejected(self, L, M):
        with pytest.raises(ValueError, match="positive integers"):
            lattice_to_scaling(0.3, L, M)

    def test_numpy_integer_extents(self):
        assert lattice_to_scaling(0.3, np.int64(5), np.int32(4)) == lattice_to_scaling(0.3, 5, 4)


class TestI1:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            integral_I1(0.0)

    def test_decay_at_high_temperature(self):
        assert abs(integral_I1(12.0)) < 1e-9

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_log_law_regular_part_bounded(self, side):
        combos = [integral_I1(side * ax) + (PI / 24.0) * math.log(ax) + C * side
                  for ax in (1e-2, 1e-3)]
        assert abs(combos[0]) < 1.0 and abs(combos[1]) < 1.0
        assert abs(combos[0] - combos[1]) < 0.05

    def test_jump_is_twice_catalan(self):
        eps = 1e-4
        jump = integral_I1(eps) - integral_I1(-eps)
        assert jump == pytest.approx(-2.0 * C, abs=3e-3)

    # from `python tests/mp_integral_I1.py -1e-10 -1e-12 1e-12` (40 digits)
    @pytest.mark.parametrize("x,ref", [(-1e-10, 4.5402066552778402),
                                       (-1e-12, 5.1430220238118356),
                                       (1e-12, 3.3110908354761813)])
    def test_tiny_x_against_mpmath(self, x, ref):
        assert integral_I1(x) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("x", [-1e-301, 5e-324])
    def test_rejects_x_beyond_double_precision(self, x):
        with pytest.raises(ValueError):
            integral_I1(x)


class TestI2:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            integral_I2(0.0)

    def test_decay_at_high_temperature(self):
        assert abs(integral_I2(12.0)) < 1e-7

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_log_law_regular_part_bounded(self, side):
        combos = [integral_I2(side * ax) + (0.125 - PI / 24.0) * math.log(ax)
                  - (C - 0.75 * LOG2) * side for ax in (1e-2, 1e-3)]
        assert abs(combos[0]) < 1.0 and abs(combos[1]) < 1.0
        assert abs(combos[0] - combos[1]) < 0.05

    def test_jump(self):
        eps = 1e-4
        jump = integral_I2(eps) - integral_I2(-eps)
        assert jump == pytest.approx(2.0 * C - 1.5 * LOG2, abs=3e-3)

    @pytest.mark.parametrize("x", [-64.0, -100.0, -340.0])
    def test_ordered_constant_far_below_zero(self, x):
        assert integral_I2(x) == -math.log(2)

    def test_split_point_continuity(self):
        # the analytic far-tail rearrangement must be seamless across S
        lo = integral_I2(3.999)
        hi = integral_I2(4.001)
        assert abs(lo - hi) < 1e-3

    @pytest.mark.parametrize("x, pinned", [
        (4.0, -1.6754413649211612e-06), (-4.0, -0.7244711223651173),
        (5.5, -8.506253639553573e-08), (-5.5, -0.7063349913839219),
        (12.0, -1.8827485478468452e-13), (-12.0, -0.6932234767668727),
        (40.0, -6.907062023961475e-38), (-40.0, -0.6931471805599455),
    ])
    def test_far_tail_branch_bit_for_bit(self, x, pinned):
        # from |x| = 4 on, I2 is the far tail plus the ordered-phase constant;
        # no pinned table has an x <= -4, so these pin the branch's bits
        assert repr(integral_I2(x)) == repr(pinned)


class TestThetaVolume:
    def test_low_temperature_limit(self):
        assert theta_volume_rho1(-15.0) == pytest.approx(-LOG2, abs=5e-5)

    def test_high_temperature_limit(self):
        assert abs(theta_volume_rho1(12.0)) < 1e-7

    def test_small_x_law(self):
        for side in (1.0, -1.0):
            combos = [theta_volume_rho1(side * ax) + math.log(ax) / 8.0
                      + 0.75 * LOG2 * side for ax in (1e-2, 1e-3)]
            assert abs(combos[0] - combos[1]) < 0.05


class TestThetaSC:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            theta_sc(0.0)

    def test_low_temperature_limit(self):
        assert theta_sc(-15.0) == pytest.approx(-LOG2, abs=0.05)

    def test_high_temperature_limit(self):
        assert abs(theta_sc(12.0)) < 1e-6

    def test_log_law_down_to_tiny_x(self):
        # theta_sc(x) + log|x|/8 is constant on each side of x = 0, and the
        # constants differ by the jump -(3/2) log 2.  The jump is met to the
        # 2.4e-11 error of I2's far tail for x < 0, not to the 1e-12 spread.
        consts = []
        for side in (-1.0, 1.0):
            vals = [theta_sc(side * ax) + math.log(ax) / 8.0
                    for ax in (1e-16, 1e-20, 1e-50, 1e-100, 1e-160, 1e-300)]
            assert max(vals) - min(vals) < 1e-12
            consts.append(vals[0])
        assert consts[1] - consts[0] == pytest.approx(-1.5 * LOG2, abs=5e-11)

    def test_rho_independence_probe(self):
        # reassemble via rho = 2 using theta_total; agreement to 1e-6
        for x in (1.0, -1.0):
            via2 = (-2.0 * strip.theta_oo(x)
                    + math.log(sigma.sigma_series(x, 2.0, 8).value)
                    + 2.0 * theta_total(x, 2.0))
            assert via2 == pytest.approx(theta_sc(x), abs=1e-6)

    @pytest.mark.parametrize("x,rho", [(0.1, 0.7), (-0.1, 0.7), (1.0, 0.7),
                                       (-1.0, 0.7), (-2.0, 0.6)])
    def test_exchange_symmetry_decomposition(self, x, rho):
        # direct decomposition at rho in [0.5, 1) against the exchange route;
        # nontrivial: theta_sc enters at two different arguments
        direct = strip.theta_oo(x) + theta_sc(x) / rho + sigma.Psi(x, rho, 8)
        u = x * rho
        symm = (strip.theta_oo(u) + rho * theta_sc(u)
                + sigma.Psi(u, 1.0 / rho, 8)) / rho**2
        assert direct == pytest.approx(symm, abs=1e-9)


class TestThetaTotal:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            theta_total(0.0, 1.0)

    def test_low_temperature_trend(self):
        for rho in (1.0, 2.0):
            assert theta_total(-15.0, rho) == pytest.approx(-LOG2 / rho, abs=0.05 / rho)

    def test_large_rho_is_strip(self):
        # approach to the strip limit is 1/rho from the surface-corner part,
        # while the strip-residual part dies exponentially
        x, rho = -2.0, 60.0
        total = theta_total(x, rho)
        assert total == pytest.approx(strip.theta_oo(x) + theta_sc(x) / rho, abs=1e-10)
        assert total == pytest.approx(strip.theta_oo(x), abs=0.01)

    def test_symmetry_round_trip(self):
        got = theta_total(2.0, 0.5)
        ref = theta_total(1.0, 2.0) / 0.25
        assert got == ref  # the rho < 1 branch is defined by this relation

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-1e5, 1000.0).filter(lambda v: abs(v) >= 1e-280),
           rho=st.floats(0.05, 50.0))
    def test_finite_on_whole_plane(self, x, rho):
        # I1 rejects |x rho| < 1e-300, which is not swept
        assert math.isfinite(theta_total(x, rho))

    def test_finite_between_minus_355_and_minus_346(self):
        # integral_I2 is -log 2 alone from x = -64 down, and so is theta_sc
        for x in (-347.0, -350.0):
            assert math.isfinite(theta_total(x, 1.0))

    @staticmethod
    def _full_sum(x, rho):
        # theta_oo + theta_sc/rho + Psi for rho >= 1, every term evaluated
        sc = (-strip.theta_oo(x) + math.log(sigma.sigma_series(x, 1.0, sigma.DEFAULT_ORDER).value)
              + theta_volume_rho1(x))
        assert sc == -LOG2
        return strip.theta_oo(x) + sc / rho + sigma.Psi(x, rho, sigma.DEFAULT_ORDER)

    @pytest.mark.parametrize("x", np.linspace(-356.0, -64.0, 37).tolist())
    def test_ordered_phase_equals_the_full_sum(self, x):
        # from x = -64 down theta_sc is -log 2 and Psi is left out; down to
        # x = -356, where the weights still evaluate, the sum of every term
        # has the same bits, at rho < 1 once x rho <= -64 as well
        assert theta_sc(x) == -LOG2
        for rho in (1.0, 2.0, 7.0, 1e40):
            assert theta_total(x, rho) == self._full_sum(x, rho)
        for rho in (0.3, 0.5):
            if x * rho <= -64.0:
                assert theta_total(x, rho) == self._full_sum(x * rho, 1.0 / rho) / (rho * rho)

    @pytest.mark.parametrize("x", [-360.0, -400.0, -1000.0, -1e5])
    def test_ordered_phase_below_the_weights(self, x):
        # where the weights fail, the potential is -log(2)/rho to the last
        # bit at rho >= 1, and within an ulp of it through the exchange below
        for rho in (1.0, 7.0):
            assert theta_total(x, rho) == -LOG2 / rho
        assert theta_total(x, 0.3) == pytest.approx(-LOG2 / 0.3, rel=2e-16)

    @pytest.mark.parametrize("rho", [1e-155, 1e-200])
    @pytest.mark.parametrize("total, x", [(theta_total, 1.0), (vartheta_total, 1.0),
                                          (vartheta_total, 0.0)],
                             ids=["theta", "vartheta", "vartheta_at_0"])
    def test_tiny_rho_overflows(self, total, x, rho):
        # rho^-2 maps the exchanged value back; at 1e-155 the quotient leaves
        # the doubles, at 1e-200 rho * rho is 0.0 itself
        with pytest.raises(OverflowError, match=f"at rho = {rho} overflows"):
            total(x, rho)

    def test_floor_applies_to_x_rho_below_rho_1(self):
        # x * rho = 7.5e-301 is below I1's floor; the error names x and rho
        with pytest.raises(ValueError, match=r"got x = 1\.5e-300, rho = 0\.5$"):
            theta_total(1.5e-300, 0.5)

    def test_finite_just_above_the_tiny_rho_limit(self):
        # just above the limit value / rho^2 is still a double, to the last bit
        pinned = -1.6362461737446892e+308
        assert theta_total(1.0, 2e-155) == vartheta_total(0.0, 2e-155) == pinned

    def test_decomposition_identity(self):
        for x, rho in ((-1.5, 1.4), (-1.0, 1.5)):
            total = theta_total(x, rho)
            parts = strip.theta_oo(x) + theta_sc(x) / rho + sigma.Psi(x, rho, 8)
            assert total == pytest.approx(parts, abs=1e-9)


class TestVarthetaTotal:
    def test_critical_square_value(self):
        assert vartheta_total(0.0, 1.0) == pytest.approx(1.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.7, 1.0, 2.0])
    def test_critical_eisenstein_form(self, rho):
        got = vartheta_total(0.0, rho)
        assert got == pytest.approx(PI / 48.0 * eisenstein_E2(rho), abs=1e-12)

    def test_sign_pattern(self):
        assert vartheta_total(0.0, 0.25) < 0.0
        assert vartheta_total(0.0, 1.0) > 0.0

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_branch_agreement_at_rho1(self, x):
        upper = vartheta_total(x, 1.0)
        lower = (strip.vartheta_oo(x) - x_dtheta_sc(x)
                 - sigma.psi_strip(x, 1.0, 8)
                 - sigma.psi_with_x_dPsi_dx_readers([x], 8)[0](1.0)[1])
        assert upper == pytest.approx(lower, abs=1e-8)

    def test_critical_exchange_formula(self):
        # at u = x rho = 0 the x dPsi/dx term drops out exactly
        rho = 0.7
        expected = (strip.vartheta_oo(0.0) - rho * x_dtheta_sc(0.0)
                    - sigma.psi_strip(0.0, 1.0 / rho, 8)) / (rho * rho)
        assert vartheta_total(0.0, rho) == expected

    @pytest.mark.parametrize("rho", [0.55, 1.0, 50.0])
    @pytest.mark.parametrize("x", [3.2e4, 1e5, 1e8])
    def test_large_x_is_finite(self, x, rho):
        # the zeros are found where the dispersion function is steep; the
        # exponentially small force and potential come out finite
        assert math.isfinite(vartheta_total(x, rho))
        assert math.isfinite(theta_total(x, rho))

    def test_rho_below_one_consistency(self):
        # against the defining derivative -d/drho [rho theta] at rho = 0.8
        x, rho, h = 1.0, 0.8, 1e-3

        def rho_theta(r):
            return r * theta_total(x, r)

        d = (4.0 * (rho_theta(rho + h / 2) - rho_theta(rho - h / 2)) / h
             - (rho_theta(rho + h) - rho_theta(rho - h)) / (2.0 * h)) / 3.0
        assert vartheta_total(x, rho) == pytest.approx(-d, abs=1e-6)

    @pytest.mark.parametrize("x", [1e-16, -1e-16, 3.4e-151, 5e-324, -5e-324])
    def test_tiny_x_is_critical(self, x):
        assert vartheta_total(x, 1.0) == pytest.approx(1.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_continuous_across_the_degenerate_zero(self, rho):
        # the first zero degenerates at x = -1; its direct dispersion function
        # cancels next to it, which moved the force at rho = 1 by 2.8e-3 one
        # ulp above -1 and at rho = 2 by 8.3e-10 at 1e-12 above it
        at = vartheta_total(-1.0, rho)
        for x in (math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), -1.0 + 1e-14,
                  -1.0 - 1e-14, -1.0 + 1e-12, -1.0 - 1e-12):
            assert abs(vartheta_total(x, rho) - at) <= 1e-13, x

    @pytest.mark.parametrize("x, rho", [(-2.0, 0.5), (-1.6, 0.625)])
    def test_smooth_where_the_stencil_straddles_the_degenerate_zero(self, x, rho):
        # u = x rho = -1: the x-derivative stencil's nodes u +- h/2, u +- h sit
        # next to the degenerate first zero; the cubic through the force at
        # x +- 1e-3 and x +- 2e-3 predicts it to about 1e-12, and the
        # stencil's differences add a few 1e-11 (the cancelling zero left 6e-10)
        f = {k: vartheta_total(x + k * 1e-3, rho) for k in (-2, -1, 0, 1, 2)}
        assert abs(f[0] - (4.0 * (f[-1] + f[1]) - f[-2] - f[2]) / 6.0) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-350.0, 1000.0), rho=st.floats(0.05, 50.0))
    def test_finite_on_whole_plane(self, x, rho):
        # x <= -355 overflows the weight prefactor and is not swept
        assert math.isfinite(vartheta_total(x, rho))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-350.0, 1000.0))
    def test_branches_agree_across_rho1(self, x):
        # rho = 1 takes the strip branch, the next float below it the exchange
        # branch; the finite differences of x dPsi/dx leave ~1e-10 relative
        below = vartheta_total(x, 1.0 - 1e-15)
        assert vartheta_total(x, 1.0) == pytest.approx(below, rel=1e-8, abs=1e-300)

    @pytest.mark.xfail(strict=True, raises=(OverflowError, QuadratureError, ZeroDivisionError),
                       reason=(
        "the force's weights are carried in the linear domain: at x = -360 the "
        "prefactor's exp overflows, at -379 gamma_1^2 is subnormal and the weights "
        "raise before any quadrature, at -400 it underflows to 0 and the weight "
        "integrand is non-finite, at -1000 a division by zero; log-domain weights "
        "would make all four finite"))
    def test_finite_at_large_negative_x(self):
        for x in (-360.0, -379.0, -400.0, -1000.0):
            assert math.isfinite(vartheta_total(x, 1.0))

    def test_potential_finite_at_large_negative_x(self):
        # the ordered-phase potential theta_oo(x) - log 2 at rho = 1, from no weight
        for x in (-360.0, -379.0, -400.0, -1000.0):
            assert theta_total(x, 1.0) == strip.theta_oo(x) - math.log(2.0)

    @pytest.mark.parametrize("x, error, message", [
        (-650.0, OverflowError, "math range error"),
        (-700.0, QuadratureError, "non-finite integrand value in panel [0.0, 385.11054187439987]"),
        (-1900.0, ZeroDivisionError, "float division by zero"),
    ])
    def test_exchanged_failures_pinned(self, x, error, message):
        # u = x rho = -357.5, -385 and -1045: the weight prefactor's exp
        # overflows, gamma_1^2 underflows, and the sinh map's scale is 0
        with pytest.raises(error) as info:
            vartheta_total(x, 0.55)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_x_dtheta_sc_finite_at_zero(self):
        # tends to -1/8, the corner log amplitude
        assert x_dtheta_sc(0.0) == pytest.approx(-0.125, abs=1e-9)

    def test_x_dtheta_sc_at_zero_drops_derivative_term(self):
        expected = (strip.theta_oo(0.0) + strip.vartheta_oo(0.0)
                    - 2.0 * sigma.psi_strip(0.0, 1.0, 8))
        assert x_dtheta_sc(0.0) == expected


class TestVarthetaGrid:
    # x = +0.0 and -0.0, u = 0.9 shared by (1.8, 0.5) and (1.0, 0.9), and
    # rho = 1 exactly among rho < 1 and rho > 1
    XS = [-0.0, 0.0, 1.0, 1.8]
    RHOS = [0.5, 0.9, 1.0, 1.5]

    def test_grid_is_its_points_bit_for_bit(self):
        grid = casimir.vartheta_grid(self.XS, self.RHOS)
        for x, row in zip(self.XS, grid):
            expected = []
            for rho in self.RHOS:
                if rho >= 1.0:
                    expected.append(-strip.theta_oo(x) + sigma.psi_strip(x, rho, 8))
                else:
                    u = x * rho
                    psi, x_dpsi = sigma.psi_with_x_dPsi_dx_readers([u], 8)[0](1.0 / rho)
                    rest = strip.vartheta_oo(u) - rho * x_dtheta_sc(u) - psi - x_dpsi
                    expected.append(rest / (rho * rho))
            assert list(map(repr, row)) == list(map(repr, expected)), x
            assert row == [vartheta_total(x, rho) for rho in self.RHOS]
            assert row == casimir.vartheta_grid([x], self.RHOS)[0]

    def test_more_distinct_u_than_one_block(self):
        # 132 distinct u = x rho: the exchanged points run as two blocks
        xs = [0.1 * k - 3.25 for k in range(66)]
        assert len({x * rho for rho in (0.5, 0.61) for x in xs}) > 128
        grid = casimir.vartheta_grid(xs, [0.5, 0.61])
        assert grid == [[vartheta_total(x, rho) for rho in (0.5, 0.61)] for x in xs]

    def test_x_dtheta_sc_sequence_is_the_scalar_calls(self):
        # 14 u, so the stencils run as four chunks, each one series batch
        us = [2.5, -0.0, -1.0, -0.999, 0.0, 1e-9, -1e-9, -300.0, 13.5, 0.9, -20.0, 5e-5,
              -0.5, 0.9]
        assert len(us) > 3 * sigma._STENCIL_CHUNK
        assert list(map(repr, x_dtheta_sc(us))) == [repr(x_dtheta_sc(u)) for u in us]

    # the slab_force benchmark grid: 13 x by 3 rho < 1, 37 distinct u = x rho
    SLAB_XS = [-15.0 + 2.5 * k for k in range(13)]
    SLAB_RHOS = [0.55, 0.725, 0.9]

    @staticmethod
    def _clear_caches():
        for cached in (roots.zero_cached, weights.weight_cached, sigma._terms_up_to,
                       sigma._stencil_terms):
            cached.cache_clear()

    def test_slab_grid_runs_one_weight_lockstep_per_stencil_chunk(self, monkeypatch):
        us = {x * rho for x in self.SLAB_XS for rho in self.SLAB_RHOS}
        assert len(us) == 37
        calls = []
        contour = weights._contour_weights

        def counted(xs, zeros):
            calls.append(len(xs))
            return contour(xs, zeros)

        self._clear_caches()
        monkeypatch.setattr(weights, "_contour_weights", counted)
        casimir.vartheta_grid(self.SLAB_XS, self.SLAB_RHOS)
        assert len(calls) <= -(-len(us) // sigma._STENCIL_CHUNK)  # 37 one u at a time

    def test_slab_grid_working_memory_is_bounded(self):
        # the stencils run four u (320 weight integrals) to a batch: the grid
        # peaked at 0.86 MB; eight u to a batch peaked at 1.33 MB, all 37 in
        # one batch at 3.1 MB, and one u at a time at 0.55 MB
        casimir.vartheta_grid([1.0], [0.6])  # the series plan, built once
        self._clear_caches()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            casimir.vartheta_grid(self.SLAB_XS, self.SLAB_RHOS)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 1.1e6

    @pytest.mark.parametrize("rhos, error, message", [
        ([0.55, 2.0], OverflowError, "math range error"),
        ([2.0, 0.55], QuadratureError,
         "non-finite integrand value in panel [0.0, 650.066939482675]"),
    ])
    def test_first_failing_point_raises(self, rhos, error, message):
        # at x = -650 the weights at x fail (rho = 2), and so do the stencil's
        # at u = -357.5 (rho = 0.55); the grid evaluates rho >= 1 first, but
        # raises what the first point in rho order raises
        with pytest.raises(error) as info:
            casimir.vartheta_grid([-650.0], rhos)
        assert type(info.value) is error
        assert str(info.value) == message


class TestDirectRoute:
    # the package's force against the determinant route at every rho
    # (direct_route.py), which shares only the zeros, the weights and
    # theta_oo; below rho = 1 the package goes through the exchange symmetry
    # and the x-derivative stencil
    XS = [-15.0 + 2.5 * k for k in range(13)]
    RHOS = [0.55, 0.725, 0.9, 1.0, 1.5]

    @pytest.fixture(scope="class")
    def points(self):
        """{rho: [(x, package, direct with 16 modes, direct with 24 modes)]}"""
        grid = casimir.vartheta_grid(self.XS, self.RHOS)
        out = {rho: [] for rho in self.RHOS}
        for x, row in zip(self.XS, grid):
            rows = zip(self.RHOS, row, vartheta_direct(x, self.RHOS, 16),
                       vartheta_direct(x, self.RHOS, 24))
            for rho, got, m16, m24 in rows:
                out[rho].append((x, got, m16, m24))
        return out

    @pytest.mark.parametrize("rho", RHOS)
    def test_oracle_has_converged_in_the_modes(self, points, rho):
        for x, _, m16, m24 in points[rho]:
            assert m16 == pytest.approx(m24, rel=1e-14, abs=1e-300), x

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    def test_relative_at_rho_at_least_one(self, points, rho):
        for x, got, direct, _ in points[rho]:
            assert got == pytest.approx(direct, rel=1e-12, abs=0.0), x

    @pytest.mark.parametrize("rho", [0.55, 0.725, 0.9])
    def test_absolute_below_rho_one(self, points, rho):
        for x, got, direct, _ in points[rho]:
            assert got == pytest.approx(direct, rel=0.0, abs=5e-11), x

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 13: below rho = 1 the stencil's Psi is the log of Sigma - 1 "
        "added to 1.0, and the strip integrals have absolute tolerances; the "
        "absolute error stays below 5e-11 while the force falls like "
        "e^{-2 rho x}, so the relative error runs from 7e-9 at x = 5 to 0.72 "
        "at (15, 0.9)"))
    @pytest.mark.parametrize("rho", [0.55, 0.725, 0.9])
    def test_relative_below_rho_one_at_large_x(self, points, rho):
        for x, got, direct, _ in points[rho]:
            if x >= 5.0:
                assert got == pytest.approx(direct, rel=1e-11, abs=0.0), x


class TestScalingRelation:
    @pytest.mark.parametrize("x,rho", [(-2.0, 1.0), (1.0, 2.0)])
    def test_force_from_potential(self, x, rho):
        h = 1e-3

        def rho_theta(r):
            return r * theta_total(x, r)

        d1 = (rho_theta(rho + h) - rho_theta(rho - h)) / (2.0 * h)
        d2 = (rho_theta(rho + h / 2) - rho_theta(rho - h / 2)) / h
        deriv = (4.0 * d2 - d1) / 3.0
        assert vartheta_total(x, rho) == pytest.approx(-deriv, abs=1e-6)


class TestAmplitude:
    def test_eta_form(self):
        for rho in (1.0, 1.3, 2.0):
            assert casimir_amplitude(rho) == pytest.approx(
                0.25 * log_dedekind_eta(rho), abs=1e-15)

    def test_two_route_agreement_internal(self):
        # the function itself raises if the routes disagree beyond
        # 1e-11 + 1e-14 |value|; the value grows like -pi rho/48
        for rho in (1.0, 1.3, 2.0, 1e6, 1e10, 1e200):
            assert casimir_amplitude(rho) == pytest.approx(
                0.25 * log_dedekind_eta(rho), abs=1e-15)

    def test_large_rho_leading_term(self):
        rho = 12.0
        assert casimir_amplitude(rho) == pytest.approx(-PI * rho / 48.0, abs=1e-10)


class TestRho0:
    def test_value(self):
        assert find_rho0() == pytest.approx(RHO0_REF, abs=1e-12)

    def test_bracket_validity(self):
        assert eisenstein_E2(0.45) < 0.0 < eisenstein_E2(0.6)

    def test_force_vanishes(self):
        assert vartheta_total(0.0, find_rho0()) == pytest.approx(0.0, abs=1e-10)


# each public entry point of the Casimir, strip and zero layers, one argument left free
_ENTRY_POINTS = {
    "theta_total_x": lambda v: theta_total(v, 1.5),
    "theta_total_rho": lambda v: theta_total(1.0, v),
    "vartheta_total_x": lambda v: vartheta_total(v, 1.0),
    "vartheta_total_rho": lambda v: vartheta_total(1.0, v),
    "vartheta_total_x_small_rho": lambda v: vartheta_total(v, 0.7),
    "theta_sc": theta_sc,
    "x_dtheta_sc": x_dtheta_sc,
    "casimir_amplitude": casimir_amplitude,
    "integral_I1": integral_I1,
    "integral_I2": integral_I2,
    "theta_volume_rho1": theta_volume_rho1,
    "theta_oo": strip.theta_oo,
    "vartheta_oo": strip.vartheta_oo,
    "find_zero": lambda v: roots.find_zero(1, v),
    "find_zero_mu2": lambda v: roots.find_zero(2, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_non_finite_input_raises(name, value):
    with pytest.raises(ValueError, match="finite"):
        _ENTRY_POINTS[name](value)
