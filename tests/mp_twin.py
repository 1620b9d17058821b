"""High-precision twin of the series and determinant routes.

The two routes for the strip residual partition function agree, for any
shared set of zeroes and weights, on every subset term up to the truncation
order; their difference is purely the higher-order minor remainder.  That
structural statement holds at tolerances far below float64 resolution, so
this twin re-evaluates BOTH routes in mpmath arithmetic from the library's
(float64) zeroes and weights: the inputs are bit-identical on both sides,
the remainder is computed without rounding loss, and the float64 library
values can be pinned against the twin at machine accuracy.
"""

from __future__ import annotations

import mpmath as mp

from casimir_rect import roots, sigma, weights


def routes(x: float, rho: float, n: int, dps: int = 60):
    """(series, determinant) as mpf values at working precision dps."""
    with mp.workdps(dps):
        idx = range(1, 2 * n + 1)
        recs = {m: roots.zero_cached(m, x) for m in idx}
        batch = weights.weight_cached(x, weights.batch_size(2 * n))
        vs = {m: mp.mpf(batch[m - 1]) for m in idx}
        phi = {m: mp.mpf(recs[m].phi_sq) for m in idx}
        gam = {m: mp.mpf(recs[m].gamma) for m in idx}
        r = mp.mpf(rho)

        series = mp.mpf(1)
        for order in range(1, n + 1):
            for s in sigma.enumerate_sets(order):
                a = mp.mpf(1)
                for i, mi in enumerate(s):
                    for mj in s[i + 1:]:
                        a *= (phi[mi] - phi[mj]) ** (2 * recs[mi].sigma * recs[mj].sigma)
                for m in s:
                    a *= vs[m]
                series += a * mp.exp(-r * mp.fsum(gam[m] for m in s))

        evens = [2 * k for k in range(1, n + 1)]
        odds = [2 * k - 1 for k in range(1, n + 1)]
        y = mp.matrix(n)
        for i, nu in enumerate(evens):
            for j, nup in enumerate(evens):
                acc = mp.mpf(0)
                for m in odds:
                    acc += (mp.exp(-r * gam[m]) * vs[m]
                            / ((phi[m] - phi[nu]) * (phi[nup] - phi[m])))
                y[i, j] = -mp.exp(-r * gam[nu]) * vs[nu] * acc
        det = mp.det(mp.eye(n) + y)
        return series, det
