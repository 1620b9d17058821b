"""The float-keyed caches are bounded, so memory stays flat in a long run,
and typed, so a float never reads the entry of an equal int."""

import pytest

from casimir_rect import casimir, roots, sigma, weights

BOUNDED = (
    roots.zero_cached,
    weights.weight_cached,
    sigma._terms_up_to,
    casimir.theta_sc,
    casimir.theta_volume_rho1,
)


def test_float_keyed_caches_are_bounded():
    for cached in BOUNDED:
        info = cached.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


def test_series_order_cache_is_unbounded():
    # keyed by the series order, so it cannot grow past the orders used
    assert sigma.enumerate_sets.cache_info().maxsize is None


def test_zero_cache_stays_within_bound():
    for k in range(5000):
        roots.zero_cached(1, 1.0 + k * 1e-6)
    assert roots.zero_cached.cache_info().currsize <= 4096


def test_caches_are_typed():
    for cached in (*BOUNDED, sigma.enumerate_sets):
        assert cached.cache_parameters()["typed"] is True


@pytest.mark.parametrize("warm, call", [
    (lambda: roots.zero_cached(3, 0.5), lambda: roots.zero_cached(3.0, 0.5)),
    (lambda: sigma.enumerate_sets(3), lambda: sigma.enumerate_sets(3.0)),
    (lambda: weights.weight_v_closed_x0(3), lambda: weights.weight_v_closed_x0(3.0)),
], ids=["zero_cached", "enumerate_sets", "weight_v_closed_x0"])
def test_warm_cache_still_rejects_a_float_index(warm, call):
    # the int entry is cached first; an untyped cache would serve it
    warm()
    with pytest.raises((ValueError, TypeError)):
        call()


def test_cold_surface_corner_potential_caches_only_its_own_x():
    # I2's quadrature nodes are used once: their zeros and weights are not
    # cached, so only x itself (and psi(0, 1)'s x = 0) enter the caches
    for cached in (*BOUNDED, sigma.enumerate_sets):
        cached.cache_clear()
    casimir.theta_sc(-2.0)
    casimir.theta_sc(5.0)
    assert weights.weight_cached.cache_info().currsize <= 3
    assert roots.zero_cached.cache_info().currsize <= 3 * 16
