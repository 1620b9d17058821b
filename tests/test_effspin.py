"""Effective spin model tests: exact series equivalence, magnetization."""

import math

import pytest

from casimir_rect import sigma
from casimir_rect.effspin import (
    build_model,
    enumerate_partition,
    magnetization,
    matched_series,
)
from casimir_rect.specialfn import euler_beta

PI = math.pi


def matched_series_by_orders(x: float, rho: float, n_spins: int) -> float:
    """Independent matched truncation: filter the order-by-order sets."""
    total = 1.0
    max_order = n_spins * n_spins // 4
    for order in range(1, max_order + 1):
        for s in sigma.enumerate_sets(order):
            if max(s) <= n_spins:
                t = sigma.amplitude(s, x)
                total += t.a * math.exp(-rho * t.gamma_sum)
    return total


class TestModel:
    def test_coupling_symmetry(self):
        m = build_model(0.5, 8)
        for i in range(8):
            assert m.couplings[i, i] == 0.0
            for j in range(8):
                assert m.couplings[i, j] == m.couplings[j, i]

    def test_leading_coupling_fixes_amplitude(self):
        # exp(K_12 - rho(Gamma_1+Gamma_2)) must equal the a_{1,2} term;
        # at x = 0 that means K_12 = log(1/4)
        m = build_model(0.0, 4)
        assert m.couplings[0, 1] == pytest.approx(math.log(0.25), abs=1e-12)

    def test_asymptotic_near_diagonal(self):
        m = build_model(0.0, 40)
        for mu in (30, 34):
            for nu in (mu + 1, mu + 2, mu + 4):
                got = m.couplings[mu - 1, nu - 1]
                sgn = m.parities[mu - 1] * m.parities[nu - 1]
                approx = 2.0 * sgn * math.log(PI * (nu - mu) / 2.0)
                assert abs(got - approx) <= 0.05 * max(abs(got), 1.0)

    def test_asymptotic_large_nu_row(self):
        m = build_model(0.0, 40)
        mu, nu = 1, 40
        sgn = m.parities[mu - 1] * m.parities[nu - 1]
        approx = 2.0 * sgn * math.log(
            PI**1.5 * nu**1.5 / (2.0**1.5 * (mu - 0.5) * euler_beta(mu / 2.0, 0.5)))
        got = m.couplings[mu - 1, nu - 1]
        assert abs(got - approx) <= 0.05 * abs(got)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_model(0.0, 1)


class TestPartitionSum:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_exact_equivalence(self, x, rho):
        for n in (4, 8, 12):
            model = build_model(x, n)
            z = enumerate_partition(model, rho)
            assert z == pytest.approx(matched_series(x, rho, n), abs=1e-12)

    def test_matched_series_against_order_filter(self):
        # the configuration walk and the order-by-order filter are the same sum
        for x, rho, n in ((0.0, 1.0, 6), (1.0, 1.0, 8)):
            assert matched_series(x, rho, n) == pytest.approx(
                matched_series_by_orders(x, rho, n), abs=1e-14)

    def test_empty_configuration_contributes_one(self):
        model = build_model(2.0, 4)
        assert enumerate_partition(model, 50.0) == pytest.approx(1.0, abs=1e-14)

    def test_spin_cap(self):
        model = build_model(0.0, 4)._replace(n_spins=30)
        with pytest.raises(ValueError):
            enumerate_partition(model, 1.0)


class TestMagnetization:
    def test_identity_with_strip_force(self):
        model = build_model(0.0, 12)
        got = magnetization(model, 1.0)
        assert got == pytest.approx(-(1.0 / 16.0 - PI / 48.0), abs=1e-8)
        assert got == pytest.approx(-sigma.psi_strip(0.0, 1.0, 10), abs=1e-10)

    @pytest.mark.parametrize("x,rho", [(-1.0, 1.0), (1.0, 2.0)])
    def test_identity_general(self, x, rho):
        model = build_model(x, 12)
        got = magnetization(model, rho)
        ref = -sigma.psi_strip(x, rho, 6)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_frozen_at_large_field(self):
        model = build_model(0.0, 8)
        assert magnetization(model, 40.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_spin_toy(self):
        model = build_model(0.0, 2)
        t = sigma.amplitude((1, 2), 0.0)
        rho = 1.3
        w = t.a * math.exp(-rho * t.gamma_sum)
        expected = w * t.gamma_sum / (1.0 + w)
        assert magnetization(model, rho) == pytest.approx(expected, rel=1e-12)
