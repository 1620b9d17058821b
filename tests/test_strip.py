"""Strip scaling-function tests against closed values and a 30-digit oracle."""

import math

import pytest

from casimir_rect.strip import theta_oo, vartheta_oo

PI = math.pi

# Frozen 30-digit-quadrature oracle values (mpmath tanh-sinh, dps=30, with
# the cancellation-free ratio form; generator in this repo's test history).
ORACLE_THETA = {
    -5.0: -0.033166443139316553754,
    -1.0: -0.29653883971308623393,
    2.0: -0.0002401744761705807334,
}
ORACLE_VARTHETA = {
    -5.0: -0.16357063552236957464,
    2.0: -0.0013264685316868441285,
}


def test_theta_critical_value():
    assert theta_oo(0.0) == pytest.approx(-PI / 48.0, abs=1e-14)


def test_vartheta_critical_value():
    # reduction Int_0^inf w/(1+e^{2w}) dw = pi^2/48 gives the same -pi/48
    assert vartheta_oo(0.0) == pytest.approx(-PI / 48.0, abs=1e-14)


def test_high_temperature_decay():
    for x in (1.5, 3.0, 5.0, 8.0):
        val = theta_oo(x)
        assert val < 0.0
        assert abs(val) <= math.exp(-2.0 * x)


def test_deep_low_temperature_stays_negative():
    for x in (-15.0, -5.0, -0.5):
        assert theta_oo(x) < 0.0


@pytest.mark.parametrize("x,ref", sorted(ORACLE_THETA.items()))
def test_theta_against_oracle(x, ref):
    assert theta_oo(x) == pytest.approx(ref, abs=1e-11)


@pytest.mark.parametrize("x,ref", sorted(ORACLE_VARTHETA.items()))
def test_vartheta_against_oracle(x, ref):
    assert vartheta_oo(x) == pytest.approx(ref, abs=1e-11)


def test_deeper_well_below_criticality():
    assert abs(theta_oo(-5.0)) > 0.0
    assert abs(theta_oo(-2.0)) > abs(theta_oo(0.0))


@pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
def test_force_potential_scaling_relation(x):
    # vartheta_oo(x) = theta_oo(x) - x * d(theta_oo)/dx, checked by central
    # finite differences with one Richardson refinement
    h = 1e-4

    def deriv(step):
        return (theta_oo(x + step) - theta_oo(x - step)) / (2.0 * step)

    d = (4.0 * deriv(h / 2.0) - deriv(h)) / 3.0
    assert vartheta_oo(x) == pytest.approx(theta_oo(x) - x * d, abs=1e-8)


@pytest.mark.parametrize("x", [-2.0, 0.7])
def test_smoothness_fd_consistency(x):
    # derivative from two independent step sizes agrees (smoothness probe)
    d1 = (theta_oo(x + 1e-4) - theta_oo(x - 1e-4)) / 2e-4
    d2 = (theta_oo(x + 5e-5) - theta_oo(x - 5e-5)) / 1e-4
    assert d1 == pytest.approx(d2, abs=1e-6)
