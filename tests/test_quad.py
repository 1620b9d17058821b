"""Quadrature module tests: analytic integrals, tolerances, determinism."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_rect import quad, weights
from casimir_rect.quad import (
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
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


def _outcome(run):
    """The reprs of run()'s values, or the repr of the QuadratureError it raises."""
    try:
        return [repr(v) for v in run()]
    except QuadratureError as e:
        return repr(e)


def test_lockstep_equals_separate_integrals_bit_for_bit():
    got = quad.integrate_lockstep(_stacked(LOCKSTEP_CASES), [c[1] for c in LOCKSTEP_CASES],
                                  [c[2] for c in LOCKSTEP_CASES])
    assert got == [integrate_finite(g, a, b) for g, a, b in LOCKSTEP_CASES]


def test_lockstep_depth_exhaustion_reports_panel(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    cases = [(np.sin, 0.0, 1.0), (lambda t: np.sqrt(np.abs(t)), 0.0, 1.0)]
    with pytest.raises(QuadratureError, match=r"depth exhausted on panel \[0.0, 0.125\]"):
        quad.integrate_lockstep(_stacked(cases), [0.0, 0.0], [1.0, 1.0], spec)


@pytest.mark.parametrize("reverse, panel", [(False, "[0.0, 0.125]"), (True, "[0.875, 1.0]")])
def test_lockstep_raises_the_first_row_at_its_limit(monkeypatch, reverse, panel):
    # both rows reach the depth limit unconverged in the same round; the
    # first in row order raises the error it raises alone
    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    gs = [lambda t: np.sqrt(np.abs(t)), lambda t: np.sqrt(np.abs(1.0 - t))]
    if reverse:
        gs.reverse()
    got = _outcome(lambda: quad.integrate_lockstep(_stacked([(g, 0.0, 1.0) for g in gs]),
                                                   [0.0, 0.0], [1.0, 1.0], spec))
    assert got == _outcome(lambda: [integrate_finite(gs[0], 0.0, 1.0, spec)])
    assert f"depth exhausted on panel {panel}" in got


def test_lockstep_non_finite_row_reports_panel():
    cases = [(np.sin, 0.0, 1.0), (lambda t: np.where(t > 3.0, np.inf, t), 0.0, 4.0)]
    with pytest.raises(QuadratureError, match=r"non-finite integrand value in panel \[0.0, 4.0\]"):
        quad.integrate_lockstep(_stacked(cases), [0.0, 0.0], [1.0, 4.0])


def test_overflowing_panel_sum_reports_panel():
    # every integrand value is finite, but the Kronrod sum overflows
    with pytest.raises(QuadratureError,
                       match=r"non-finite value or error estimate in panel \[0.0, 10.0\]"):
        integrate_finite(lambda t: np.full_like(t, 1e308), 0.0, 10.0)


def test_lockstep_rejects_bounds_of_unequal_length():
    def f(nodes, owners):
        raise AssertionError("integrand called")

    for a, b in (([0.0], [1.0, 2.0]), ([0.0, 0.0], [1.0])):
        with pytest.raises(ValueError, match="lower and .* upper integration bounds"):
            quad.integrate_lockstep(f, a, b)


def test_lockstep_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        quad.integrate_lockstep(_stacked(LOCKSTEP_CASES[:2]), [0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 1.0), (-math.inf, 0.0),
                                  (0.0, math.inf)])
def test_lockstep_rejects_non_finite_bounds(a, b):
    # an argument error, raised before any node is built, so numpy has
    # nothing to warn about
    def f(nodes, owners):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="finite"):
        quad.integrate_lockstep(f, [0.0, a], [1.0, b])
    with pytest.raises(ValueError, match="finite"):
        integrate_finite(np.sin, a, b)


def test_batched_panel_sums_equal_lone_dot_products():
    # each panel's Kronrod and Gauss sums must be the lone-row dot product
    # bit for bit; a matrix product or einsum over all rows sums in another
    # order and differs in the last bits on about half of such rows
    rng = np.random.default_rng(20261018)
    n = 12000
    rows = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-250.0, 250.0, (n, 15))
    los = rng.uniform(-5.0, 5.0, n).tolist()
    his = [lo + w for lo, w in zip(los, rng.uniform(1e-3, 5.0, n))]
    vals, errs = quad._estimates(lambda nodes, owners: rows.ravel(), list(range(n)), los, his)
    for lo, hi, row, val, err in zip(los, his, rows, vals, errs):
        half = 0.5 * (hi - lo)
        k15 = half * float(quad._WK @ row)
        assert val == k15
        assert err == abs(k15 - half * float(quad._WG @ row[1::2]))


# Recorded before the panel sums were batched with np.vecdot; any change to
# either loop that moves a last bit shows here first.
LOCKSTEP_PINNED = [
    "2.0000000000000004", "0.4842354014789664", "1.8856180831641625", "0.0", "98.01289480295979",
]


def test_lockstep_results_pinned():
    # one integral per call: integrate_finite's loop
    got = [quad.integrate_lockstep(_stacked([c]), [c[1]], [c[2]])[0] for c in LOCKSTEP_CASES]
    assert [repr(v) for v in got] == LOCKSTEP_PINNED


WEIGHTS_PINNED = {
    0.37: [
        "4.545210881771869", "18.021578818782356", "29.586308972434942", "42.83470884178661",
        "54.84976339478432", "67.85418331793213", "80.04443768121608", "92.93058909812002",
        "105.21222814833028", "118.02986747788937", "130.36734943834253", "143.14049765861034",
        "155.5155758445092", "168.2575593651517", "180.65965367847235", "193.37860978379402",
    ],
    -4.0: [
        "18.442834883750066", "91.22725370260532", "40.22904546041882", "72.66880341571171",
        "69.18323221869862", "92.13613540086487", "95.5447718561241", "115.09457715642326",
        "121.26172707501966", "139.08017318358", "146.73174377049688", "163.5045757688573",
        "172.08289603657815", "188.15653287213195", "197.3681868990183", "212.94159907642617",
    ],
}


@pytest.mark.parametrize("x", sorted(WEIGHTS_PINNED))
def test_weight_batch_pinned(x):
    assert [repr(r.v) for r in weights.weight_v(range(1, 17), x)] == WEIGHTS_PINNED[x]


def test_array_bookkeeping_results_pinned():
    # all integrals in one call: the (k x capacity) arrays
    got = quad.integrate_lockstep(_stacked(LOCKSTEP_CASES), [c[1] for c in LOCKSTEP_CASES],
                                  [c[2] for c in LOCKSTEP_CASES])
    assert [repr(v) for v in got] == LOCKSTEP_PINNED


def test_both_bookkeeping_forms_bisect_the_leftmost_of_equal_panels(monkeypatch):
    # a square wave has jumps at 1 and 2 in the equal panels [0.75, 1.5] and
    # [1.5, 2.25]; integrate_lockstep's arrays hold them in another order
    # than integrate_finite's lists
    def wave(nodes):
        return np.where(np.fmod(nodes, 2.0) > 1.0, 1.0, 0.0)

    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    leftmost = r"depth exhausted on panel \[0.75, 1.5\]"
    with pytest.raises(QuadratureError, match=leftmost):
        integrate_finite(wave, 0.0, 6.0, spec)
    with pytest.raises(QuadratureError, match=leftmost):
        quad.integrate_lockstep(_stacked([(wave, 0.0, 6.0), (np.zeros_like, 0.0, 1.0)]),
                                [0.0, 0.0], [6.0, 1.0], spec)


def test_one_integral_lockstep_is_integrate_finite(monkeypatch):
    # a value within three bisections, then the depth error naming [0.0, 0.125]
    monkeypatch.setattr(quad, "_MAX_DEPTH", 3)
    g = lambda t: np.sqrt(np.abs(t))  # noqa: E731
    for spec, expected in ((QuadratureSpec(rel_tol=1e-3, abs_tol=1e-3), ["0.6666801255484176"]),
                           (QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300),
                            "QuadratureError('adaptive depth exhausted on panel [0.0, 0.125] "
                            "(error estimate 1.030e-05, requested 6.667e-16)')")):
        assert _outcome(lambda: [integrate_finite(g, 0.0, 1.0, spec)]) == expected
        assert _outcome(lambda: quad.integrate_lockstep(_stacked([(g, 0.0, 1.0)]), [0.0], [1.0],
                                                        spec)) == expected


def test_unconverged_only_where_the_numpy_sums_prove_it():
    # numpy sums this row to one ulp above its exact, correctly rounded sum
    row = [0.12500000000000017, 1.0000000000000016, 0.25000000000000017]
    err = np.array([row])
    assert float(err.sum(axis=1)[0]) > math.fsum(row)
    at_limit = QuadratureSpec(rel_tol=1e-15, abs_tol=math.fsum(row))
    assert not quad._proven_unconverged(np.zeros_like(err), err, at_limit)[0]
    below = QuadratureSpec(rel_tol=1e-15, abs_tol=0.5)
    assert quad._proven_unconverged(np.zeros_like(err), err, below)[0]


# integrand families g(t, c) for the bookkeeping comparison: smooth, a kink
# or a root singularity at c, a narrow peak, a step, and constants
FAMILY = (
    lambda t, c: np.sin(c * t),
    lambda t, c: np.sqrt(np.abs(t - c)),
    lambda t, c: 1.0 / (1e-3 * np.abs(c) + 1e-4 + (t - c) ** 2),
    lambda t, c: np.exp(-np.abs(c) * t * t),
    lambda t, c: np.where(t > c, 1.0, 0.0),
    lambda t, c: np.zeros_like(t),
    lambda t, c: c * np.ones_like(t),
)


# (family, parameter, lower bound, width) per integral, zero widths included
_ROW = st.tuples(st.integers(0, len(FAMILY) - 1), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0),
                 st.sampled_from([0.0, 0.5, 3.0, 8.0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 90).flatmap(lambda k: st.lists(_ROW, min_size=k, max_size=k)),
       rel_tol=st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]),
       abs_tol=st.sampled_from([1e-2, 1e-10, 1e-14, 1e-300]),
       depth=st.sampled_from([3, 8, 20]))
def test_list_and_array_bookkeeping_agree(rows, rel_tol, abs_tol, depth):
    # each integrate_lockstep row equals integrate_finite on its integral
    # alone, bit for bit, and a failing batch raises the lone error of one
    # of its failing rows
    kind, c = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    def f(nodes, owners):
        out = np.empty_like(nodes)
        for j in set(kind[owners].tolist()):
            mine = kind[owners] == j
            out[mine] = FAMILY[j](nodes[mine], c[owners[mine]])
        return out

    a = [r[2] for r in rows]
    b = [lo + width for lo, (_, _, _, width) in zip(a, rows)]
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=abs_tol)
    with mock.patch.object(quad, "_MAX_DEPTH", depth):
        batch = _outcome(lambda: quad.integrate_lockstep(f, a, b, spec))
        lone = [_outcome(lambda: [integrate_finite(lambda t: f(t, np.full(t.size, i)), lo, hi,
                                                   spec)])
                for i, (lo, hi) in enumerate(zip(a, b))]
    if isinstance(batch, str):
        assert batch in lone
    else:
        assert [batch[i:i + 1] for i in range(len(a))] == lone
