"""Zero-spectrum tests: dispersion residuals, ordering, series expansion."""

import math

import pytest

from casimir_rect.roots import (
    DEGENERATE_WINDOW,
    eval_char_poly,
    find_zero,
    find_zeros,
    near_degenerate,
    zero_series_approx,
)

PI = math.pi


def test_char_poly_trivial_zero():
    assert eval_char_poly((PI / 2) ** 2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_char_poly_degenerate_point():
    assert eval_char_poly(0.0, -1.0) == 0.0


def test_char_poly_at_tabulated_zero():
    assert abs(eval_char_poly(2.028757838**2, 1.0)) < 1e-8


def test_char_poly_imaginary_branch():
    # cosh(1) + x*sinh(1) at phi_sq = -1
    got = eval_char_poly(-1.0, -2.0)
    assert got == pytest.approx(math.cosh(1.0) - 2.0 * math.sinh(1.0), abs=1e-14)


def test_find_zero_imaginary():
    z = find_zero(1, -4.0)
    assert math.sqrt(-z.phi_sq) == pytest.approx(3.997302692, abs=1e-8)


def test_find_zero_tabulated():
    assert find_zero(3, 2.0).phi == pytest.approx(8.096163603, abs=1e-8)


def test_find_zero_exact_at_x0():
    assert find_zero(5, 0.0).phi == 9.0 * PI / 2.0


def test_find_zeros_x_neg1():
    got = [z.phi for z in find_zeros(4, -1.0)]
    expected = [0.0, 4.493409458, 7.725251837, 10.90412166]
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-8)


def test_find_zeros_x0():
    got = [z.phi for z in find_zeros(2, 0.0)]
    assert got == [PI / 2.0, 3.0 * PI / 2.0]


def test_find_zeros_x4():
    got = [z.phi for z in find_zeros(4, 4.0)]
    expected = [2.570431560, 5.354031841, 8.302929183, 11.33482558]
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-8)


@pytest.mark.parametrize("x", [-10.0, -4.0, -1.0, -0.3, 0.0, 0.7, 3.0, 10.0])
def test_residuals_small_over_spectrum(x):
    for z in find_zeros(50, x):
        if z.phi_sq >= 0.0:
            assert abs(eval_char_poly(z.phi_sq, x)) < 1e-12
        else:
            y = math.sqrt(-z.phi_sq)
            assert abs(y / math.tanh(y) + x) < 1e-12 * max(1.0, abs(x))


@pytest.mark.parametrize("x", [-6.0, -1.0, 0.5, 6.0])
def test_interlacing_in_mu(x):
    zs = find_zeros(30, x)
    for a, b in zip(zs, zs[1:]):
        assert a.phi_sq < b.phi_sq


@pytest.mark.parametrize("mu", [1, 2, 5, 20])
def test_monotone_in_x(mu):
    xs = [-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0]
    vals = [find_zero(mu, x).phi_sq for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a < b


def test_parity_and_gamma_consistency():
    for x in (-3.0, 0.4):
        for z in find_zeros(8, x):
            assert z.sigma == (-1) ** (z.mu - 1)
            assert z.gamma >= 0.0
            assert z.gamma**2 == pytest.approx(x * x + z.phi_sq,
                                               abs=1e-12 * max(1.0, x * x))


def test_continuity_slope_at_degeneracy():
    # phi_sq(1, -1 +/- eps) -> 0 with slope 3
    for eps in (1e-5, 1e-7):
        assert find_zero(1, -1.0 + eps).phi_sq == pytest.approx(3.0 * eps, rel=1e-3)
        assert find_zero(1, -1.0 - eps).phi_sq == pytest.approx(-3.0 * eps, rel=1e-3)


# x: (phi_sq, gamma) of the first zero next to x = -1, from tests/mp_zeros.py
# (60 digits, printed to 20); |1 + x| runs from 1e-2 down to 2^-52
MP_ZEROS = {
    -1.01: (-0.030060068571300282195, 0.99500750320221190569),
    -1.001: (-0.0030006000685710967544, 0.99950007500321313521),
    -1.0001: (-0.000300006000068538387, 0.99995000075000321967),
    -1.000001: (-3.0000005997532685589e-6, 0.99999950000007504114),
    -1.00000001: (-2.9999999877675870212e-8, 0.99999999500000003789),
    -1.0000000001: (-3.0000002482811130072e-10, 0.99999999994999999586),
    -1.000000000001: (-3.0002667017476231415e-12, 0.99999999999949995555),
    -1.00000000000001: (-2.9976021664879286496e-14, 0.999999999999995004),
    -1.0000000000000002: (-6.6613381477509395384e-16, 0.99999999999999988898),
    -0.9999999999999998: (6.6613381477509389467e-16, 1.000000000000000111),
    -0.99999999999999: (2.9976021664879166687e-14, 1.000000000000004996),
    -0.999999999999: (2.9999336348390355144e-12, 1.0000000000004999889),
    -0.9999999999: (3.0000002481611129873e-10, 1.0000000000500000041),
    -0.99999999: (3.0000000090742777725e-8, 1.0000000050000000326),
    -0.999999: (2.9999994000863355305e-6, 1.0000005000000750144),
    -0.9999: (0.00029999400006853838964, 1.0000500007499967801),
    -0.999: (0.0029994000685714299526, 1.0005000749967845096),
    -0.99: (0.029940068571300439811, 1.0050074967736809983),
}


@pytest.mark.parametrize("x", sorted(MP_ZEROS))
def test_first_zero_next_to_degeneracy_matches_mpmath(x):
    # the direct dispersion function cancels there: its phi_sq was off by
    # 8e-11 relative at |1 + x| = 1e-4 and by 0.7 at 1e-14
    phi_sq, gamma = MP_ZEROS[x]
    z = find_zero(1, x)
    assert abs(z.phi_sq - phi_sq) <= 1e-14 * abs(phi_sq)
    assert abs(z.gamma - gamma) <= 1e-14 * gamma


@pytest.mark.parametrize("edge", [-1.0 - DEGENERATE_WINDOW, -1.0 + DEGENERATE_WINDOW])
def test_first_zero_continuous_across_window_edge(edge):
    # edge rounds to just outside the window and its neighbour toward -1 is inside
    inside = math.nextafter(edge, -1.0)
    assert near_degenerate(1, inside) and not near_degenerate(1, edge)
    a, b = find_zero(1, inside).phi_sq, find_zero(1, edge).phi_sq
    assert abs(a - b) <= 1e-14 * abs(a)


def test_gamma_of_values():
    assert find_zero(1, -1.0).gamma == 1.0
    # 2*pi*0.89179907560 - 1 from the exponent table at x = -1
    assert find_zero(2, -1.0).gamma == pytest.approx(2.0 * PI * 0.89179907560 - 1.0, abs=1e-9)
    assert find_zero(1, 0.0).gamma == PI / 2.0


@pytest.mark.parametrize("x", [1e-16, -1e-16, 1e-300, -1e-300])
def test_tiny_x_zero_at_bracket_end(x):
    # the zero sits within rounding of (mu - 1/2) pi, where the float
    # residual can have the wrong sign
    for mu in range(1, 201):
        f0 = (mu - 0.5) * PI
        assert find_zero(mu, x).phi_sq == pytest.approx(f0 * f0, rel=1e-13)


@pytest.mark.parametrize("mu, x", [(mu, x) for x in (1e5, 1e6, 1e8) for mu in range(1, 5)]
                         + [(10431, 1.0)])
def test_zero_at_steep_slope(mu, x):
    # where |f'| ~ x/F is large, one ulp of F moves the residual past any
    # fixed tolerance; the zero is still found to within that ulp
    f = find_zero(mu, x).phi
    assert (mu - 0.5) * PI < f < mu * PI
    slope = -math.sin(f) + x * (f * math.cos(f) - math.sin(f)) / (f * f)
    assert abs(eval_char_poly(f * f, x)) <= 4.0 * abs(slope) * math.ulp(f)


def test_series_approx_low_order():
    # order 2 reproduces F0^2 + 2x - x^2(2x+3)/(3 F0^2); the evaluated form
    # carries partial higher-order terms, hence the loose comparison
    got = zero_series_approx(4, 1.0, 2)
    f0 = 7.0 * PI / 2.0
    assert got == pytest.approx(f0 * f0 + 2.0 - 5.0 / (3.0 * f0 * f0), abs=5e-4)
    assert abs(math.sqrt(got) - 11.08553841) < 1e-4


@pytest.mark.parametrize("mu", [3, 8, 40])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_series_approx_x0_exact(mu, order):
    assert zero_series_approx(mu, 0.0, order) == ((mu - 0.5) * PI) ** 2


def test_series_approx_vs_root_finder():
    got = zero_series_approx(10, -2.0, 3)
    ref = find_zero(10, -2.0).phi_sq
    assert abs(math.sqrt(got) - math.sqrt(ref)) < 1e-8


@pytest.mark.parametrize("x", [-4.0, -1.5, 2.5, 4.0])
@pytest.mark.parametrize("mu", [20, 35])
def test_series_approx_high_mu(mu, x):
    got = zero_series_approx(mu, x, 4)
    ref = find_zero(mu, x).phi_sq
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_input_validation():
    with pytest.raises(ValueError):
        find_zero(0, 1.0)
    with pytest.raises(ValueError):
        find_zeros(0, 1.0)


@pytest.mark.parametrize("mu, x", [(2, 1.4e154), (1, -1.4e154), (1, 1e300), (3, -1e300)])
def test_overflowing_square_raises(mu, x):
    # gamma^2 = x^2 + phi_sq, or phi_sq = -y^2 of the imaginary zero, overflows
    with pytest.raises(OverflowError, match=f"zero mu={mu} at x="):
        find_zero(mu, x)


@pytest.mark.parametrize("mu, x", [(2, 1.34e154), (1, -1.34e154)])
def test_largest_finite_square(mu, x):
    record = find_zero(mu, x)
    assert math.isfinite(record.phi_sq) and math.isfinite(record.gamma)
