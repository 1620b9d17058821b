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


LOCKSTEP_CASES = [
    (np.sin, 0.0, math.pi),
    (lambda t: np.log1p(np.exp(-t)) / (1.0 + t * t), 0.0, 30.0),
    (lambda t: np.sqrt(t), 0.0, 2.0),
    (lambda t: np.exp(-t), 1.0, 1.0),
    (lambda t: 1.0 / (1e-3 + t * t), -1.0, 3.0),
]


def _stacked(cases):
    """The cases' integrands as one lockstep integrand f(nodes, owners)."""

    def f(nodes, owners):
        out = np.empty_like(nodes)
        for i, (g, _, _) in enumerate(cases):
            mine = owners == i
            out[mine] = g(nodes[mine])
        return out

    return f


def test_lockstep_equals_separate_integrals_bit_for_bit():
    got = quad.integrate_lockstep(_stacked(LOCKSTEP_CASES), [c[1] for c in LOCKSTEP_CASES],
                                  [c[2] for c in LOCKSTEP_CASES])
    assert got == [integrate_finite(g, a, b) for g, a, b in LOCKSTEP_CASES]


def test_lockstep_forms_equal_single_entry_points_bit_for_bit():
    gs = [lambda s: np.exp(-s) / (1.0 + s), lambda s: s * np.exp(-2.0 * s)]
    f = _stacked([(g, None, None) for g in gs])
    assert (quad.integrate_sqrt_singularity_lockstep(f, 0.5, 2)
            == [integrate_sqrt_singularity(g, 0.5) for g in gs])
    assert (quad.integrate_sinh_map_lockstep(f, 0.01, 30.0, 2)
            == [integrate_sinh_map(g, 0.01, 30.0) for g in gs])


def test_lockstep_depth_exhaustion_reports_panel(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    cases = [(np.sin, 0.0, 1.0), (lambda t: np.sqrt(np.abs(t)), 0.0, 1.0)]
    with pytest.raises(QuadratureError, match=r"depth exhausted on panel \[0.0, 0.125\]"):
        quad.integrate_lockstep(_stacked(cases), [0.0, 0.0], [1.0, 1.0], spec)


def test_lockstep_non_finite_row_reports_panel():
    cases = [(np.sin, 0.0, 1.0), (lambda t: np.where(t > 3.0, np.inf, t), 0.0, 4.0)]
    with pytest.raises(QuadratureError, match=r"non-finite integrand value in panel \[0.0, 4.0\]"):
        quad.integrate_lockstep(_stacked(cases), [0.0, 0.0], [1.0, 4.0])


def test_lockstep_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        quad.integrate_lockstep(_stacked(LOCKSTEP_CASES[:2]), [0.0, 1.0], [1.0, 0.0])
