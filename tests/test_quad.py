"""Quadrature module tests: analytic integrals, tolerances, determinism."""

import math

import numpy as np
import pytest

from casimir_rect import quad
from casimir_rect.quad import (
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    integrate_sinh_map,
    integrate_sqrt_singularity,
)


def test_constant():
    assert integrate_finite(lambda t: np.ones_like(t), 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_sin():
    assert integrate_finite(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)


def test_log_fermi_integral():
    # oracle: sum_{k>=1} (-1)^(k+1)/(2 k^2) = pi^2/24
    oracle = math.fsum((-1) ** (k + 1) / (2.0 * k * k) for k in range(1, 400000))
    assert oracle == pytest.approx(math.pi**2 / 24.0, abs=1e-11)
    got = integrate_finite(lambda w: np.log1p(np.exp(-2.0 * w)), 0.0, 40.0)
    assert got == pytest.approx(math.pi**2 / 24.0, abs=1e-12)


def test_semi_infinite_exp():
    assert integrate_semi_infinite(lambda t: np.exp(-t), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_semi_infinite_sech():
    got = integrate_semi_infinite(lambda t: 1.0 / np.cosh(t), 0.0)
    assert got == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_semi_infinite_gaussian_flank():
    got = integrate_semi_infinite(lambda t: t * np.exp(-t * t), 0.0)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_sqrt_singularity_substituted_exp():
    got = integrate_sqrt_singularity(lambda s: np.exp(-s), 0.0)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_scalar_only_integrand_rejected():
    # integrands take and return node arrays; a scalar-only callable fails
    # on its first panel instead of being wrapped in a per-node loop
    with pytest.raises((TypeError, ValueError)):
        integrate_finite(lambda t: math.exp(-t), 0.0, 5.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda t: 1.0, 0.0, 5.0)


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_sinh_map_exp(scale):
    upper = 30.0
    got = integrate_sinh_map(lambda w: np.exp(-w), scale, upper)
    assert got == pytest.approx(-math.expm1(-upper), abs=1e-14)


@pytest.mark.parametrize("rel", [1e-6, 1e-9, 1e-12])
def test_tightening_tolerance_never_hurts(rel):
    spec = QuadratureSpec(rel_tol=rel, abs_tol=1e-15)
    got = integrate_finite(np.sin, 0.0, math.pi, spec)
    assert abs(got - 2.0) <= max(10.0 * rel, 1e-13)


def test_deterministic():
    f = lambda t: np.log1p(np.exp(-t)) / (1.0 + t * t)  # noqa: E731
    a = integrate_finite(f, 0.0, 30.0)
    b = integrate_finite(f, 0.0, 30.0)
    assert a == b  # bit-identical


def test_invalid_bounds():
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 1.0, 0.0)


def test_depth_exhaustion_reports_panel(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    with pytest.raises(QuadratureError, match="depth exhausted"):
        integrate_finite(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
