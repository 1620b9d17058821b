"""The float-keyed caches are bounded, so memory stays flat in a long run."""

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
