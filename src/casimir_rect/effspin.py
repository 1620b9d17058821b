"""Universal effective spin model equivalent to the subset series.

The strip residual partition function maps onto a lattice gas of spins
s_mu in {0, 1} with pairwise couplings

    K_mu_nu = -sigma_mu sigma_nu log( v_mu v_nu / (F_mu^2 - F_nu^2)^2 )

and a field rho*Gamma_mu, restricted to charge-balanced configurations
(sum sigma_mu s_mu = 0, the infinite-penalty limit of the quadratic charge
term).  On balanced configurations the coupling product telescopes exactly
into the subset amplitude a_s, so exact enumeration reproduces the series
term by term; the model's magnetization equals minus the strip force.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import roots, sigma
from .weights import batch_size, weight_cached

__all__ = ["EffectiveModel", "build_model", "enumerate_partition",
           "magnetization", "matched_series"]

_MAX_SPINS = 24


class EffectiveModel(NamedTuple):
    """Couplings and moments of the truncated effective model."""

    n_spins: int
    couplings: np.ndarray  # symmetric (n, n), zero diagonal; [mu-1, nu-1]
    moments: np.ndarray  # Gamma_mu, shape (n,)
    parities: np.ndarray  # sigma_mu, shape (n,)


def build_model(x: float, n_spins: int) -> EffectiveModel:
    """Populate couplings and moments from the zeroes and weights."""
    if n_spins < 2:
        raise ValueError("n_spins must be >= 2")
    zs = [roots.zero_cached(mu, x) for mu in range(1, n_spins + 1)]
    vs = np.array(weight_cached(x, batch_size(n_spins))[:n_spins])
    phi = np.array([z.phi_sq for z in zs])
    sig = np.array([z.sigma for z in zs])
    k = np.zeros((n_spins, n_spins))
    for i in range(n_spins):
        for j in range(i + 1, n_spins):
            val = -sig[i] * sig[j] * math.log(vs[i] * vs[j] / (phi[i] - phi[j]) ** 2)
            k[i, j] = k[j, i] = val
    return EffectiveModel(n_spins=n_spins, couplings=k,
                          moments=np.array([z.gamma for z in zs]), parities=sig)


def _balanced_configs(n_spins: int):
    """All charge-balanced occupation sets (as index tuples, 0-based).

    Odd modes mu sit at even 0-based indices, even modes at odd ones.
    """
    if n_spins > _MAX_SPINS:
        raise ValueError(f"exact enumeration capped at {_MAX_SPINS} spins")
    odds = range(0, n_spins, 2)
    evens = range(1, n_spins, 2)
    yield ()
    for k in range(1, len(evens) + 1):
        for occ_o in combinations(odds, k):
            for occ_e in combinations(evens, k):
                yield occ_o + occ_e


def _require_rho(rho: float) -> None:
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")


def _config_log_weight(model: EffectiveModel, occ, rho: float) -> float:
    total = 0.0
    for a, b in combinations(occ, 2):
        total += model.couplings[a, b]
    total -= rho * sum(model.moments[i] for i in occ)
    return total


def enumerate_partition(model: EffectiveModel, rho: float) -> float:
    """Partition sum over balanced configurations by exact enumeration.

    Each balanced configuration contributes exp(sum K s s - rho sum Gamma s)
    and maps one-to-one onto a subset-series term a_s exp(-rho Gamma_s);
    the empty configuration contributes 1.
    """
    _require_rho(rho)
    return math.fsum(math.exp(_config_log_weight(model, occ, rho))
                     for occ in _balanced_configs(model.n_spins))


def matched_series(x: float, rho: float, n_spins: int) -> float:
    """Subset series restricted to index sets within {1..n_spins}.

    The exact counterpart of enumerate_partition on the series side: both
    run over the same balanced index sets, so the two must agree to
    rounding, not merely to truncation order.
    """
    _require_rho(rho)
    total = 1.0
    for occ in _balanced_configs(n_spins):
        if not occ:
            continue
        term = sigma.amplitude(tuple(i + 1 for i in occ), x)
        total += term.a * math.exp(-rho * term.gamma_sum)
    return total


def magnetization(model: EffectiveModel, rho: float) -> float:
    """Moment-weighted mean occupation, sum_mu Gamma_mu <s_mu>.

    Equals minus the strip Casimir force scaling function on matched
    truncations.
    """
    _require_rho(rho)
    z = 0.0
    m = 0.0
    for occ in _balanced_configs(model.n_spins):
        w = math.exp(_config_log_weight(model, occ, rho))
        z += w
        m += w * sum(model.moments[i] for i in occ)
    return m / z
