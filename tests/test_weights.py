"""Weight tests: counting-kernel identity, closed forms, batches, product oracle."""

import math
import sys

import numpy as np
import pytest

from casimir_rect import quad, roots, sigma, weights
from casimir_rect.quad import QuadratureError, QuadratureSpec, integrate_sqrt_singularity
from casimir_rect.weights import (
    counting_integrand,
    weight,
    weight_v,
    weight_v_closed_x0,
)
from weight_oracles import oracle_product_p, weight_w_generating_check

PI = math.pi


def kernel_identity(x: float) -> float:
    """(1/pi) Int_{|x|}^inf K(t) dt, via t = sqrt(x^2+s^2) so dt = (s/t) ds.

    Uses the cancellation-free substituted kernel; a separate test pins that
    kernel pointwise to the public counting_integrand away from the
    endpoint, where the naive form is float-representable.
    """
    from casimir_rect.weights import _kernel_sub

    def g(s):
        return _kernel_sub(np.asarray(s, dtype=float), x)

    return integrate_sqrt_singularity(g, abs(x), QuadratureSpec(abs_tol=1e-13)) / PI


class TestCountingIntegrand:
    def test_x0_reduction(self):
        # K(t) at x = 0 reduces to -1/cosh(t)
        t = np.linspace(0.3, 12.0, 40)
        assert np.allclose(counting_integrand(t, 0.0), -1.0 / np.cosh(t), atol=1e-14)

    @pytest.mark.parametrize("x", [-4.0, -1.5, -0.5, 0.5, 1.5, 4.0])
    def test_counting_identity(self, x):
        expected = 0.0 if x > 0 else -1.0
        assert kernel_identity(x) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("x", [-4.0, -0.5, 0.5, 4.0])
    def test_substituted_kernel_matches_public_form(self, x):
        # K(t) dt = kernel(s) ds with dt/ds = s/t, away from the endpoint
        from casimir_rect.weights import _kernel_sub

        s = np.linspace(0.5 * max(1.0, abs(x)), 8.0 + abs(x), 25)
        t = np.hypot(s, x)
        assert np.allclose(_kernel_sub(s, x) * t / s, counting_integrand(t, x),
                           rtol=1e-11, atol=1e-13)

    def test_exponential_tail(self):
        assert abs(counting_integrand(40.0, 1.0)) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            counting_integrand(0.5, 1.0)


class TestClosedForms:
    @pytest.mark.parametrize("mu,expected", [
        (1, PI**2 / 2.0),
        (2, 2.0 * PI**2),
        (3, 25.0 * PI**2 / 8.0),
        (4, 9.0 * PI**2 / 2.0),
    ])
    def test_exact_values(self, mu, expected):
        assert weight_v_closed_x0(mu).v == pytest.approx(expected, rel=1e-14)

    def test_contour_matches_closed_form(self):
        for mu in range(1, 13):
            closed = weight_v_closed_x0(mu).v
            cont = weight_v(mu, 0.0).v
            assert abs(cont - closed) / closed < 1e-11

    def test_closed_form_rejects_mode_zero(self):
        with pytest.raises(ValueError, match="mu must be >= 1"):
            weight_v_closed_x0(0)

    def test_method_labels(self):
        assert weight_v(3, 0.5).method == "contour"
        assert weight_v_closed_x0(3).method == "closed_form_x0"
        assert weight_v(1, -1.0).method == "special_x_neg1"


class TestSpecialValue:
    def test_quoted_value(self):
        assert weight_v(1, -1.0).v == pytest.approx(6.39303337215, abs=1e-10)

    def test_continuity_across_degeneracy(self):
        for eps in (1e-4,):
            above = weight_v(1, -1.0 + eps).v
            below = weight_v(1, -1.0 - eps).v
            assert abs(above - 6.39303337215) < 1e-2
            assert abs(below - 6.39303337215) < 1e-2


class TestPositivityAndSmoothness:
    @pytest.mark.parametrize("x", [-20.0, -5.0, -1.5, -0.5, 0.0, 0.5, 5.0, 20.0])
    def test_positive(self, x):
        for mu in list(range(1, 11)) + [25, 40]:
            if mu == 1 and x == -1.0:
                continue
            v = weight_v(mu, x).v if x != 0.0 else weight_v_closed_x0(mu).v
            assert v > 0.0, (mu, x)

    @pytest.mark.parametrize("x", [-1.0 - 2.0 ** -52, -1.0 + 2.0 ** -53, -1.0 - 1e-14,
                                   -1.0 + 1e-14])
    def test_first_weight_continuous_at_degeneracy(self, x):
        # the zero and the prefactor's gamma^2 + x both cancel next to x = -1
        assert weight_v(1, x).v == pytest.approx(weight_v(1, -1.0).v, rel=1e-13)

    def test_smooth_in_x_near_degeneracy(self):
        # epsilon-sequence around x = -1 brackets the special value
        seq = [weight_v(1, -1.0 + e).v for e in (1e-2, 1e-3, 1e-4)]
        ref = weight_v(1, -1.0).v
        gaps = [abs(s - ref) for s in seq]
        assert gaps[0] > gaps[1] > gaps[2]


BATCH_XS = [0.37, 2.5, 15.0, 300.0, -0.6, -0.999, -1.0, -1.0001, -1.5, -4.0, -12.0, -20.0,
            -300.0, 1e-16, -1e-16]


class TestBatch:
    @pytest.mark.parametrize("x", BATCH_XS)
    def test_batch_equals_single_modes_bit_for_bit(self, x):
        batch = weight_v(range(1, 17), x)
        assert batch == [weight_v(mu, x) for mu in range(1, 17)]

    def test_int_mode_gives_one_record(self):
        rec = weight_v(4, 0.5)
        assert isinstance(rec, weights.WeightRecord) and rec.mu == 4
        assert weight_v([4], 0.5) == [rec]

    def test_routes_kept_per_mode_at_x0(self):
        recs = weight(range(1, 9), 0.0)
        assert recs == [weight_v_closed_x0(mu) for mu in range(1, 9)]
        assert {r.method for r in recs} == {"closed_form_x0"}

    def test_routes_kept_per_mode_at_x_neg1(self):
        recs = weight(range(1, 9), -1.0)
        assert recs[0] == weight_v(1, -1.0)
        assert recs[1:] == [weight_v(mu, -1.0) for mu in range(2, 9)]
        assert [r.method for r in recs] == ["special_x_neg1"] + ["contour"] * 7

    def test_cache_holds_one_batch_per_x_for_default_order(self):
        x = 0.8125
        weights.weight_cached.cache_clear()
        sigma._terms_up_to.cache_clear()
        sigma.psi_strip(x, 1.0, 8)
        sigma.sigma_det(x, 1.0, 8)
        assert weights.weight_cached.cache_info().currsize == 1
        assert weights.weight_cached(x, 16) == tuple(r.v for r in weight_v(range(1, 17), x))
        # a larger batch repeats the smaller one's weights bit for bit
        assert weights.weight_cached(x, 32) == tuple(r.v for r in weight_v(range(1, 33), x))
        assert weights.weight_cached(x, 32)[:16] == weights.weight_cached(x, 16)

    def test_underflowing_batch_raises_quadrature_error(self):
        # gamma_1^2 underflows at x = -400; the failure names the panel
        with pytest.raises(QuadratureError, match="non-finite integrand value in panel"):
            weight_v(range(1, 17), -400.0)

    def test_subnormal_gamma_guard_needs_mode_1(self, monkeypatch):
        # gamma_1^2 = 1.4e-308 is subnormal at x = -361, but the sinh route's
        # scale gamma_1 is a normal double, so a batch without mode 1
        # converges; rejecting every batch at such an x would break this
        assert 0.0 < roots.find_zero(1, -361.0).gamma ** 2 < sys.float_info.min
        assert all(math.isfinite(r.v) for r in weight_v([2, 16], -361.0))

        def unreachable(*args):
            raise AssertionError("quadrature started")

        # with mode 1 the batch raises before any quadrature
        monkeypatch.setattr(quad, "integrate_lockstep", unreachable)
        with pytest.raises(QuadratureError, match=r"gamma_1\^2 = 1.434e-308 is subnormal"):
            weight_v([1, 2], -361.0)

    @pytest.mark.parametrize("m,size", [(1, 16), (16, 16), (17, 32), (32, 32)])
    def test_batch_size_rounds_up_to_whole_blocks(self, m, size):
        assert weights.batch_size(m) == size


class TestGeneratingFunction:
    def test_first_coefficient(self):
        assert weight_w_generating_check(0.0, 1) == pytest.approx(0.0, abs=1e-13)

    def test_six_coefficients(self):
        assert weight_w_generating_check(0.3, 6) < 1e-10

    def test_many_coefficients(self):
        assert weight_w_generating_check(0.5, 20) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            weight_w_generating_check(1.0, 4)


class TestProductOracle:
    def test_ratio_same_parity_x0(self):
        p1 = abs(oracle_product_p(1, 0.0, 400))
        p3 = abs(oracle_product_p(3, 0.0, 400))
        # closed-form p ratio: v_mu = p * (F_mu)^sigma at x = 0
        f1, f3 = PI / 2.0, 5.0 * PI / 2.0
        closed = (weight_v_closed_x0(3).v / f3) / (weight_v_closed_x0(1).v / f1)
        assert p3 / p1 == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_pair_product_vs_contour(self, x):
        z1, z2 = roots.zero_cached(1, x), roots.zero_cached(2, x)
        v1o = abs(oracle_product_p(1, x, 400)) * (z1.gamma - x)
        v2o = abs(oracle_product_p(2, x, 400)) / (z2.gamma + x)
        if x == 0.0:
            v1, v2 = weight_v_closed_x0(1).v, weight_v_closed_x0(2).v
        else:
            v1, v2 = weight_v(1, x).v, weight_v(2, x).v
        assert v1o * v2o == pytest.approx(v1 * v2, rel=1e-5)

    def test_amplitude_from_oracle_matches_table(self):
        # a_{1,2}(x=1) = 0.15689480307 built purely from the product oracle
        x = 1.0
        z1, z2 = roots.zero_cached(1, x), roots.zero_cached(2, x)
        v1o = abs(oracle_product_p(1, x, 400)) * (z1.gamma - x)
        v2o = abs(oracle_product_p(2, x, 400)) / (z2.gamma + x)
        a = v1o * v2o / (z1.phi_sq - z2.phi_sq) ** 2
        assert a == pytest.approx(0.15689480307, abs=1e-6)

    def test_partial_products_alternate(self):
        # pairing consecutive zeroes turns the alternating tail monotone
        x = 0.5
        vals = [abs(oracle_product_p(2, x, n)) for n in (100, 200, 400, 800)]
        ref = vals[-1]
        errs = [abs(v - ref) for v in vals[:-1]]
        assert errs[0] > errs[1] > errs[2]

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            oracle_product_p(5, 0.0, 10)


# v_mu(x) for mu = 1, 2, 8, 16 from tests/mp_weights.py (30 digits, printed to 20)
MP_WEIGHTS = {
    0.37: (4.5452108817717914528, 18.021578818783304029, 92.930589098145709362,
           193.37860978386292416),
    2.5: (3.1267567006442408249, 12.072365291173509561, 84.84201787955074657,
          185.05686555977450515),
    -0.6: (5.7245516593801279975, 23.308604463674070208, 97.025246435754563903,
           197.35905563479670841),
    1e-3: (4.9336608653860766211, 19.734132394577097907, 94.451019591360319796,
           194.875766821793697),
    -4.0: (18.442834883750061217, 91.227253702605320797, 115.09457715642326419,
           212.94159907642618037),
    -12.0: (144.01124862879876599, 1412.8208638245815453, 196.64614794260805981,
            264.12693031719375908),
}
MP_MODES = (1, 2, 8, 16)


def _mp_rel_errors(xs, modes=MP_MODES):
    out = {}
    for x in xs:
        for rec in weight_v(modes, x):
            want = MP_WEIGHTS[x][MP_MODES.index(rec.mu)]
            out[(rec.mu, x)] = abs(rec.v - want) / want
    return out


class TestMpOracle:
    def test_all_within_1e_12(self):
        errs = _mp_rel_errors(MP_WEIGHTS)
        assert len(errs) == 24
        assert max(errs.values()) < 1e-12, errs

    def test_sinh_mapped_route_within_2e_14(self):
        # x < -1: the kernel spike is resolved by the s = c sinh(v) map
        errs = _mp_rel_errors([x for x in MP_WEIGHTS if x < -1.0])
        assert max(errs.values()) < 2e-14, errs

    @pytest.mark.xfail(strict=True, reason=(
        "quad.truncation_points sets the end point T assuming an e^{-t} tail, "
        "but the weight integrands decay more slowly (their log factor grows "
        "with s); the dropped tails put mu >= 2 off by up to 4e-13 relative"))
    def test_higher_modes_within_2e_14(self):
        errs = _mp_rel_errors([x for x in MP_WEIGHTS if x >= -1.0], (2, 8, 16))
        assert max(errs.values()) < 2e-14, errs


class TestWeightBatch:
    # both routes, the degenerate zero at x = -1, 0 < |x| < 1, [-4, -2] and [4, 40]
    XS = [0.37, -0.6, -1.0, -1.5, -2.0, -4.0, 4.0, 40.0, 1e-3, -0.999, -12.0, 7.25]

    @staticmethod
    def _zeros(xs, n=16):
        return [[roots.find_zero(mu, x) for mu in range(1, n + 1)] for x in xs]

    def test_rows_equal_weight_v_bit_for_bit(self):
        rows = weights.weight_batch(self.XS, self._zeros(self.XS))
        assert rows == [[r.v for r in weight_v(range(1, 17), x)] for x in self.XS]

    @pytest.mark.parametrize("xs", [[-2.5], [0.5, -1.5, -1.0], [4.25, 5.0, 6.0]])
    def test_short_calls(self, xs):
        rows = weights.weight_batch(xs, self._zeros(xs))
        assert rows == [[r.v for r in weight_v(range(1, 17), x)] for x in xs]

    def test_closed_forms_at_x0(self):
        rows = weights.weight_batch([0.0, 1.0], self._zeros([0.0, 1.0], 4))
        assert rows[0] == [r.v for r in weight(range(1, 5), 0.0)]
        assert rows[1] == [r.v for r in weight(range(1, 5), 1.0)]

    def test_mode_subsets_and_order(self):
        # the sinh route reads gamma_1 even where mode 1 is not asked for
        xs = [-3.0, 2.0]
        zeros = [[roots.find_zero(mu, x) for mu in (5, 2)] for x in xs]
        assert weights.weight_batch(xs, zeros) == [
            [weight_v(5, x).v, weight_v(2, x).v] for x in xs]
