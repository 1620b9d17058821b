"""Series/determinant tests for the strip residual partition function."""

import math

import pytest

from casimir_rect import quad, sigma
from casimir_rect.sigma import (
    Psi,
    amplitude,
    critical_series_coefficients,
    enumerate_sets,
    psi_strip,
    psi_strip_batch,
    sigma_det,
    sigma_series,
)
from casimir_rect.specialfn import divisor_sigma, eisenstein_E2

PI = math.pi

CRITICAL_COEFFS = [1.0 / 4, 13.0 / 32, 55.0 / 128, 1235.0 / 2048, 4615.0 / 8192]


def partition_count_oracle(n: int) -> int:
    """Independent partition counter by bounded-part dynamic programming."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


class TestEnumeration:
    def test_first_set(self):
        assert enumerate_sets(1) == ((1, 2),)

    def test_order_four_sets(self):
        got = {frozenset(s) for s in enumerate_sets(4)}
        expected = {frozenset(s) for s in [(1, 8), (3, 6), (5, 4), (7, 2), (1, 3, 2, 4)]}
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 30])
    def test_counts_match_partition_numbers(self, n):
        assert len(enumerate_sets(n)) == partition_count_oracle(n)

    def test_balance_and_weight_sum(self):
        for n in range(1, 9):
            for s in enumerate_sets(n):
                odds = sum(1 for m in s if m % 2 == 1)
                assert odds * 2 == len(s)
                assert sum(2 * m - 1 for m in s) == 4 * n

    def test_lexicographic_order(self):
        sets = enumerate_sets(6)
        assert list(sets) == sorted(sets)

    def test_domain(self):
        with pytest.raises(ValueError):
            enumerate_sets(0)


class TestAmplitude:
    def test_leading_critical(self):
        t = amplitude((1, 2), 0.0)
        assert t.a == pytest.approx(0.25, abs=1e-14)
        assert t.gamma_sum == pytest.approx(2.0 * PI, abs=1e-14)

    def test_x_neg1_pair(self):
        t = amplitude((1, 2), -1.0)
        assert t.a == pytest.approx(0.41416034599, abs=1e-9)
        assert t.gamma_sum / (2.0 * PI) == pytest.approx(0.89179907560, abs=1e-10)

    def test_order_two_critical_sum(self):
        a32 = amplitude((3, 2), 0.0).a
        a14 = amplitude((1, 4), 0.0).a
        assert a32 == pytest.approx(25.0 / 64.0, abs=1e-13)
        assert a14 == pytest.approx(1.0 / 64.0, abs=1e-14)
        assert a32 + a14 == pytest.approx(13.0 / 32.0, abs=1e-13)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            amplitude((1, 3), 0.0)
        with pytest.raises(ValueError):
            amplitude((1, 1, 2, 2), 0.0)


class TestSeries:
    def test_critical_series_values(self):
        got = sigma_series(0.0, 1.0, 5).value
        expected = 1.0 + math.fsum(
            c * math.exp(-2.0 * PI * n) for n, c in enumerate(CRITICAL_COEFFS, start=1))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_large_rho_limit(self):
        assert sigma_series(2.5, 40.0, 3).value == pytest.approx(1.0, abs=1e-15)

    def test_coefficients_recovered_as_rationals(self):
        for got, ref in zip(critical_series_coefficients(5), CRITICAL_COEFFS):
            assert got == pytest.approx(ref, abs=1e-12)

    def test_error_bound_honest(self):
        r5 = sigma_series(0.0, 1.0, 5)
        r10 = sigma_series(0.0, 1.0, 10)
        assert abs(r5.value - r10.value) < r5.error_bound

    def test_rho_precondition(self):
        with pytest.raises(ValueError):
            sigma_series(0.0, 0.4, 4)
        with pytest.raises(ValueError):
            sigma_series(0.0, math.nan, 4)
        with pytest.raises(ValueError):
            sigma_series(0.0, 1.0, 0)


class TestDeterminant:
    @pytest.mark.parametrize("x", [-2.0, -1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("modes", [4, 6, 8])
    def test_route_equivalence_float64(self, x, rho, modes):
        """Series and determinant agree to the truncation bound or the
        float64 noise floor, whichever is larger (the stated bound falls
        below machine epsilon for large rho*modes; the full-precision
        verification of the bound itself is in the acceptance suite)."""
        d = sigma_det(x, rho, modes).value
        s = sigma_series(x, rho, modes).value
        bound = max(10.0 * math.exp(-2.0 * PI * rho * modes), 1e-12)
        assert abs(d - s) < bound

    def test_rho2_truncated_value(self):
        got = sigma_det(0.0, 2.0, 4).value
        assert got == pytest.approx(1.0 + 0.25 * math.exp(-4.0 * PI), abs=1e-10)

    def test_modes_guard(self):
        with pytest.raises(ValueError):
            sigma_det(0.0, 1.0, 0)


class TestPsiFunctions:
    def test_Psi_critical_divisor_series(self):
        # Psi(0,1) = -log Sigma(0,1) = -(1/4) sum sigma(n)/n q^n
        q = math.exp(-2.0 * PI)
        expected = -0.25 * math.fsum(divisor_sigma(n) / n * q**n for n in range(1, 30))
        assert Psi(0.0, 1.0, 8) == pytest.approx(expected, abs=1e-15)

    def test_Psi_vanishes_at_large_rho(self):
        assert Psi(1.0, 50.0, 4) == pytest.approx(0.0, abs=1e-15)

    def test_Psi_rho2(self):
        expected = -0.5 * math.log(sigma_series(0.0, 2.0, 8).value)
        assert Psi(0.0, 2.0, 8) == expected

    def test_psi_special_value(self):
        assert psi_strip(0.0, 1.0, 10) == pytest.approx(1.0 / 16.0 - PI / 48.0, abs=1e-9)

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0])
    def test_psi_eisenstein_form(self, rho):
        got = psi_strip(0.0, rho, 10)
        assert got == pytest.approx(PI / 48.0 * (eisenstein_E2(rho) - 1.0), abs=1e-12)

    def test_psi_vanishes_at_large_rho(self):
        assert psi_strip(-1.0, 45.0, 4) == pytest.approx(0.0, abs=1e-14)

    def test_exponents_match_reference_table(self):
        # Gamma_s / 2 pi at x = +/-1 for the order-1..2 sets
        refs = {
            (-1.0, (1, 2)): 0.89179907560,
            (-1.0, (3, 2)): 1.97241431063,
            (-1.0, (1, 4)): 1.90188245064,
            (1.0, (1, 2)): 1.15797017264,
            (1.0, (3, 2)): 2.07776833638,
            (1.0, (1, 4)): 2.13146302530,
        }
        for (x, s), ref in refs.items():
            assert amplitude(s, x).gamma_sum / (2 * PI) == pytest.approx(ref, abs=1e-10)


def _kronrod_nodes(lo, hi):
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * quad._XK).tolist()


# node sets as I2's integrand receives them: 3 truncation probes, one panel
# of 15 Kronrod nodes, or two halves of 30; plus lone nodes and sets that
# mix both weight routes (x >= -1 and x < -1) and both signs
BATCHES = {
    "one_node": [-2.5],
    "probes_far_positive": [4.25, 5.0, 6.0],
    "probes_far_negative": [-4.25, -5.0, -6.0],
    "inside_unit_interval": [0.3, -0.3, 0.95, -0.95, 1e-3],
    "degenerate_zero": [-0.8, -1.0, -1.2],
    "minus_4_to_minus_2": [-2.0, -3.1, -4.0],
    "4_to_40": [4.0, 11.5, 40.0],
    "mixed_routes_and_signs": [0.5, -1.5, -1.0, 3.0, -0.4, 25.0, -3.7],
    "panel_across_minus_1": [-v for v in _kronrod_nodes(0.75, 4.0)],
    "two_halves": _kronrod_nodes(0.5, 2.25) + _kronrod_nodes(2.25, 4.0),
}


class TestPsiStripBatch:
    @pytest.mark.parametrize("xs", BATCHES.values(), ids=BATCHES.keys())
    def test_equals_psi_strip_bit_for_bit(self, xs):
        assert psi_strip_batch(xs, 1.0, 8) == [psi_strip(x, 1.0, 8) for x in xs]

    def test_other_rho_and_order(self):
        xs = [0.0, -1.0, 2.5, -6.0]
        assert psi_strip_batch(xs, 1.7, 5) == [psi_strip(x, 1.7, 5) for x in xs]

    @staticmethod
    def _alone(x):
        with pytest.raises(Exception) as info:
            psi_strip(x, 1.0, 8)
        return info.value

    @pytest.mark.parametrize("xs, failing", [
        ([-2.0, -360.0, -400.0], -360.0),
        ([-2.0, -400.0, -360.0], -400.0),
        ([-400.0, 1.0], -400.0),
        ([1.0, math.nan, -360.0], math.nan),
    ], ids=["overflow_first", "underflow_first", "first_node", "nan_node"])
    def test_raises_as_the_first_failing_node(self, xs, failing):
        # x = -400 fails inside the weight quadrature, -360 only after it
        # (math.exp overflows), so the batch meets -400 first in both orders
        want = self._alone(failing)
        with pytest.raises(type(want)) as info:
            psi_strip_batch(xs, 1.0, 8)
        assert str(info.value) == str(want)

    def test_rejects_what_psi_strip_rejects(self):
        with pytest.raises(ValueError, match="below 0.5"):
            psi_strip_batch([1.0], 0.4, 8)
        with pytest.raises(ValueError, match="N must be >= 1"):
            psi_strip_batch([1.0], 1.0, 0)


class TestTermBuilder:
    @pytest.mark.parametrize("x", [-2.5, -1.0, 0.0, 0.7, 12.0])
    @pytest.mark.parametrize("N", [3, 8, 10])
    def test_terms_equal_amplitudes_bit_for_bit(self, x, N):
        # the plan-based builder against amplitude(), set by set, in the
        # series' order: per order by decreasing exponent, stably
        want = []
        for n in range(1, N + 1):
            group = [amplitude(s, x) for s in enumerate_sets(n)]
            group.sort(key=lambda t: -t.gamma_sum)
            want += [(t.a, t.gamma_sum) for t in group]
        assert list(sigma._terms_up_to(x, N)) == want
