"""Weight tests: counting-kernel identity, closed forms, batches, product oracle."""

import math

import numpy as np
import pytest

from casimir_rect import roots, sigma, weights
from casimir_rect.quad import QuadratureSpec, integrate_sqrt_singularity
from casimir_rect.weights import (
    counting_integrand,
    weight,
    weight_v,
    weight_v_closed_x0,
    weight_v_special_xneg1,
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

    def test_method_labels(self):
        assert weight_v(3, 0.5).method == "contour"
        assert weight_v_closed_x0(3).method == "closed_form_x0"
        assert weight_v_special_xneg1().method == "special_x_neg1"


class TestSpecialValue:
    def test_quoted_value(self):
        assert weight_v_special_xneg1().v == pytest.approx(6.39303337215, abs=1e-10)

    def test_continuity_across_degeneracy(self):
        for eps in (1e-4,):
            above = weight_v(1, -1.0 + eps).v
            below = weight_v(1, -1.0 - eps).v
            assert abs(above - 6.39303337215) < 1e-2
            assert abs(below - 6.39303337215) < 1e-2

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError):
            weight_v(1, -1.0)


class TestPositivityAndSmoothness:
    @pytest.mark.parametrize("x", [-20.0, -5.0, -1.5, -0.5, 0.0, 0.5, 5.0, 20.0])
    def test_positive(self, x):
        for mu in list(range(1, 11)) + [25, 40]:
            if mu == 1 and x == -1.0:
                continue
            v = weight_v(mu, x).v if x != 0.0 else weight_v_closed_x0(mu).v
            assert v > 0.0, (mu, x)

    def test_smooth_in_x_near_degeneracy(self):
        # epsilon-sequence around x = -1 brackets the special value
        seq = [weight_v(1, -1.0 + e).v for e in (1e-2, 1e-3, 1e-4)]
        ref = weight_v_special_xneg1().v
        gaps = [abs(s - ref) for s in seq]
        assert gaps[0] > gaps[1] > gaps[2]


BATCH_XS = [0.37, 2.5, 15.0, 300.0, -0.6, -0.999, -1.0001, -1.5, -4.0, -12.0, -20.0,
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
        assert recs[0] == weight_v_special_xneg1()
        assert recs[1:] == [weight_v(mu, -1.0) for mu in range(2, 9)]
        assert [r.method for r in recs] == ["special_x_neg1"] + ["contour"] * 7

    def test_degenerate_point_rejected_in_batch(self):
        with pytest.raises(ValueError):
            weight_v(range(1, 5), -1.0)

    def test_cache_holds_one_batch_per_x_for_default_order(self):
        x = 0.8125
        weights.weight_cached.cache_clear()
        sigma._terms_up_to.cache_clear()
        sigma.psi_strip(x, 1.0, 8)
        sigma.sigma_det(x, 1.0, 8)
        assert weights.weight_cached.cache_info().currsize == 1
        assert weights.weight_cached(x, 16) == tuple(r.v for r in weight_v(range(1, 17), x))

    def test_larger_batch_extends_the_smaller_one(self, monkeypatch):
        x = 0.6875
        weights.weight_cached.cache_clear()
        sigma._terms_up_to.cache_clear()
        calls = []
        weight_v = weights.weight_v

        def counting(mu, x):
            calls.append(tuple(mu))
            return weight_v(mu, x)

        monkeypatch.setattr(weights, "weight_v", counting)
        sigma.psi_strip(x, 1.0, 8)
        sigma.sigma_det(x, 1.0, 16)
        assert calls == [tuple(range(1, 17)), tuple(range(17, 33))]
        assert weights.weight_cached(x, 32) == tuple(r.v for r in weight_v(range(1, 33), x))

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
