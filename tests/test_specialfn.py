"""Special-function tests, cross-checked against mpmath where available."""

import math

import mpmath as mp
import numpy as np
import pytest

from casimir_rect.specialfn import (
    catalan_constant,
    dilog,
    divisor_sigma,
    eisenstein_E2,
    euler_beta,
    hurwitz_zeta_sderiv_neg1,
    log_dedekind_eta,
    log_q_pochhammer,
)

PI = math.pi

# log eta(i rho) and E2(i rho) from tests/mp_qseries.py (30 digits, printed to 20)
MP_QSERIES = {
    1e-2: (-23.87735368692089797, -9809.0140682897255971),
    1e-3: (-258.34551015965836801, -998090.14068289725597),
    1e-4: (-2613.388707805506274, -99980901.40682897256),
}


class TestDilog:
    def test_classical_values(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0) == pytest.approx(PI * PI / 6.0, abs=1e-15)
        assert dilog(-1.0) == pytest.approx(-PI * PI / 12.0, abs=1e-15)

    def test_duplication_identity(self):
        for z in np.linspace(-1.0, 1.0, 81):
            assert dilog(z) + dilog(-z) == pytest.approx(0.5 * dilog(z * z), abs=1e-13)

    @pytest.mark.parametrize("z", [-1e8, -123.4, -2.0, -0.9, -0.5, -0.1, 0.3, 0.77, 0.999, 1.0])
    def test_against_mpmath(self, z):
        assert dilog(z) == pytest.approx(float(mp.polylog(2, z)), rel=1e-14, abs=1e-15)

    def test_vectorized(self):
        z = np.array([-3.0, -0.2, 0.5, 1.0])
        got = dilog(z)
        assert got.shape == z.shape
        for zi, gi in zip(z, got):
            assert gi == dilog(float(zi))

    def test_domain(self):
        with pytest.raises(ValueError):
            dilog(1.5)


class TestBeta:
    def test_values(self):
        assert euler_beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert euler_beta(0.5, 0.5) == pytest.approx(PI, rel=1e-14)
        assert euler_beta(1.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            euler_beta(1.0, -2.0)

    @pytest.mark.parametrize("b", [0.5, 1.5, 1.0, 2.0, 1e-8])
    @pytest.mark.parametrize("a", [16.75, 17.0, 50.0, 500.0, 1e6, 1e10, 1e15, 1e16, 1e100, 1e200])
    def test_one_large_argument_against_mpmath(self, a, b):
        # the lgamma difference cancels here: 1.2e-13 relative at B(500, 1/2),
        # and B(1e16, 1/2) was 1.0
        with mp.workdps(360):
            ref = float(mp.beta(a, b))
        assert euler_beta(a, b) == pytest.approx(ref, rel=1e-15)
        assert euler_beta(b, a) == euler_beta(a, b)

    @pytest.mark.parametrize("b", [2.5, 3.0, 7.5, 10.0, 16.5, 50.0, 100.0])
    @pytest.mark.parametrize("a", [17.0, 1000.0, 1e6, 1e10, 1e16, 1e100])
    def test_both_above_two_one_large_against_mpmath(self, a, b):
        # the lgamma difference cancelled here too: B(1e10, 2.5) was 2.4e-5 off,
        # and B(1e16, 10) came out 1.06e-139 for 3.6e-155; where B is far
        # below the doubles (B(1e16, 50) = 6e-738) the result is 0.0
        with mp.workdps(400):
            ref = float(mp.beta(a, b))
        assert euler_beta(a, b) == pytest.approx(ref, rel=2e-13, abs=0.0)
        assert euler_beta(b, a) == euler_beta(a, b)

    def test_below_the_doubles(self):
        # B(1e300, 3/2) = 1e-450
        assert euler_beta(1e300, 1.5) == 0.0

    @pytest.mark.parametrize("mu", range(1, 34))
    def test_lgamma_form_up_to_16_5(self, mu):
        # the closed-form weights at x = 0 read B(mu/2, 1/2); modes <= 33 keep their bits
        a = mu / 2.0
        assert euler_beta(a, 0.5) == math.exp(math.lgamma(a) + math.lgamma(0.5)
                                              - math.lgamma(a + 0.5))

    @pytest.mark.parametrize("a, b", [(1e-320, 1.0), (40.0, 1e-320)])
    def test_overflow_is_named(self, a, b):
        with pytest.raises(OverflowError, match=r"^B\(.*\) overflows the doubles$"):
            euler_beta(a, b)


class TestDivisorSigma:
    def test_values(self):
        assert divisor_sigma(1) == 1
        assert divisor_sigma(6) == 12
        assert divisor_sigma(7) == 8

    def test_multiplicative_on_coprime(self):
        import math as m

        for a in range(2, 101):
            for b in range(2, 101):
                if m.gcd(a, b) == 1 and a * b <= 10000:
                    assert divisor_sigma(a * b) == divisor_sigma(a) * divisor_sigma(b)

    def test_domain(self):
        with pytest.raises(ValueError):
            divisor_sigma(0)


class TestQSeries:
    def test_E2_limit(self):
        assert eisenstein_E2(50.0) == pytest.approx(1.0, abs=1e-15)

    def test_E2_zero_location(self):
        assert abs(eisenstein_E2(0.523521700017999266800)) < 1e-12

    def test_E2_consistency_with_amplitude(self):
        # 1/16 - pi/48 = (pi/48)(E2(i) - 1) at rho = 1
        got = PI / 48.0 * (eisenstein_E2(1.0) - 1.0)
        assert got == pytest.approx(1.0 / 16.0 - PI / 48.0, abs=1e-14)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_pochhammer_two_representations(self, rho):
        # sum_j log(1-q^j) == -sum_n sigma(n) q^n / n
        q = math.exp(-2.0 * PI * rho)
        alt = -math.fsum(divisor_sigma(n) * q**n / n for n in range(1, 60))
        assert log_q_pochhammer(rho) == pytest.approx(alt, abs=1e-14)

    def test_pochhammer_limit(self):
        assert log_q_pochhammer(60.0) == 0.0

    def test_underflowed_nome(self):
        # q = exp(-2 pi rho) is 0.0 here; the series still sum to their limits
        assert math.exp(-2.0 * PI * 200.0) == 0.0
        assert eisenstein_E2(200.0) == 1.0
        assert log_q_pochhammer(200.0) == 0.0

    @pytest.mark.parametrize("rho", [0.3, 0.7, 1.0, 2.5])
    def test_eta_vs_mpmath(self, rho):
        ref = float(mp.log(mp.qp(mp.exp(-2 * mp.pi * rho))) - mp.pi * rho / 12)
        assert log_dedekind_eta(rho) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.4, 1.0, 1.7])
    def test_E2_pochhammer_pointwise_relation(self, rho):
        # -(pi/2) sum sigma(n) q^n == (pi/48)(E2 - 1)
        q = math.exp(-2.0 * PI * rho)
        lhs = -PI / 2.0 * math.fsum(divisor_sigma(n) * q**n for n in range(1, 60))
        rhs = PI / 48.0 * (eisenstein_E2(rho) - 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    @pytest.mark.parametrize("rho", sorted(MP_QSERIES))
    def test_small_rho_vs_direct_series(self, rho):
        # below rho = 1 the library goes through the modular relations; the
        # oracle sums the q-series at q = exp(-2 pi rho) itself
        eta, e2 = MP_QSERIES[rho]
        assert log_dedekind_eta(rho) == pytest.approx(eta, rel=1e-13)
        assert log_q_pochhammer(rho) == pytest.approx(eta + PI * rho / 12.0, rel=1e-13)
        assert eisenstein_E2(rho) == pytest.approx(e2, rel=1e-13)

    def test_overflow_raises(self):
        # E2 ~ -1/rho^2 leaves the doubles below rho ~ 7.5e-155, eta ~ -pi/(12 rho)
        # only below rho ~ 1.46e-309
        assert math.isfinite(eisenstein_E2(1e-154))
        assert math.isfinite(log_dedekind_eta(1e-300))
        with pytest.raises(OverflowError):
            eisenstein_E2(1e-155)
        for rho in (1.45e-309, 5e-324):
            for f in (eisenstein_E2, log_dedekind_eta, log_q_pochhammer):
                with pytest.raises(OverflowError, match=f"at rho = {rho}"):  # the caller's rho
                    f(rho)

    @pytest.mark.parametrize("rho, value", [
        (1e308, -2.6179938779914943e307),
        (1.7976931348623157e308, -4.70634962157688e307),
        (1e-308, -2.6179938779914943e307),
        (3e-309, -8.726646259971646e307),
        (1.46e-309, -1.793146491774993e308),
    ])
    def test_eta_finite_wherever_its_value_is(self, rho, value):
        # -pi rho/12 and -pi/(12 rho) are doubles although pi*rho and 1/rho
        # overflow; the modular route adds -log(rho)/2 ~ 355 below rho = 1
        assert log_dedekind_eta(rho) == value
        assert log_dedekind_eta(rho) == pytest.approx(
            -PI * (rho / 12.0 if rho > 1.0 else 1.0 / 12.0 / rho), rel=1e-13)


class TestCatalan:
    def test_series_oracle(self):
        # sum (-1)^k/(2k+1)^2 with one Euler pairing for acceleration
        terms = [(-1) ** k / (2 * k + 1) ** 2 for k in range(200000)]
        oracle = math.fsum(terms) + 0.5 * 1.0 / (2 * 200000 + 1) ** 2
        assert catalan_constant() == pytest.approx(oracle, abs=1e-11)
        assert catalan_constant() == pytest.approx(float(mp.catalan), abs=1e-15)

    def test_bounds(self):
        assert 0.9 < catalan_constant() < 0.92


class TestHurwitzDeriv:
    @pytest.mark.parametrize("a", [1.0, 0.125, 0.375, 0.625, 0.875, 0.5, 0.05])
    def test_against_mpmath(self, a):
        mp.mp.dps = 30
        ref = float(mp.diff(lambda s: mp.zeta(s, a), -1))
        assert hurwitz_zeta_sderiv_neg1(a) == pytest.approx(ref, abs=1e-13)

    def test_reduces_to_riemann(self):
        mp.mp.dps = 30
        ref = float(mp.diff(mp.zeta, -1))
        assert hurwitz_zeta_sderiv_neg1(1.0) == pytest.approx(ref, abs=1e-13)

    def test_surface_combination(self):
        got = (-0.75 * math.log(math.sqrt(2.0) - 1.0)
               - 2.0 * (hurwitz_zeta_sderiv_neg1(0.125) + hurwitz_zeta_sderiv_neg1(0.375)
                        - hurwitz_zeta_sderiv_neg1(0.625) - hurwitz_zeta_sderiv_neg1(0.875)))
        assert got == pytest.approx(0.1817314169844, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_sderiv_neg1(0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta_sderiv_neg1(1.5)
