"""The strip force against the Ising model itself, by a dense transfer matrix.

Take L columns of M spins with free boundaries on all four sides and
isotropic coupling K = artanh z.  Let Z(L) be the partition function and
Lambda_0 the largest eigenvalue of the column transfer matrix.  The bulk,
surface and corner free energies cancel in

    M [log Z(L + 1) - log Z(L) - log Lambda_0]  ->  psi(x, rho),

with rho = (L + 1/2)/M.  The symmetric transfer matrix
T = D^(1/2) V D^(1/2) acts on the 2^M column states.  D holds the bonds
within a column, and V the bonds between neighbouring columns, one row at
a time.  So T is applied bond by bond and never stored, and M <= 12 takes
milliseconds.  At this size the check is good to a few 1e-5 on values near
-2.2e-3.  It would catch a wrong sign, factor or mode pairing, not a 1e-10
defect.
"""

import itertools
import math

import numpy as np

from casimir_rect.casimir import lattice_to_scaling
from casimir_rect.sigma import psi_strip
from casimir_rect.thermo_constants import Z_CRITICAL

K_CRITICAL = math.atanh(Z_CRITICAL)


def _half_column_weights(M: int, K: float) -> np.ndarray:
    """D^(1/2): exp(K/2 sum_i s_i s_{i+1}) for each column state; bit i is row i."""
    spins = 1 - 2 * ((np.arange(2 ** M)[:, None] >> np.arange(M)) & 1)
    return np.exp(0.5 * K * (spins[:, :-1] * spins[:, 1:]).sum(axis=1))


def _apply_transfer(v: np.ndarray, half: np.ndarray, K: float) -> np.ndarray:
    """T v, with V = exp(K) + exp(-K) (row i flipped), one row at a time."""
    v = v * half
    for i in range(half.size.bit_length() - 1):
        w = v.reshape(-1, 2, 2 ** i)
        v = (math.exp(K) * w + math.exp(-K) * w[:, ::-1, :]).reshape(-1)
    return v * half


def log_partition_functions(L: int, M: int, K: float) -> list[float]:
    """log Z(n) for n = 1..L, with Z(n) = w^T T^(n-1) w and w = D^(1/2) 1."""
    half = _half_column_weights(M, K)
    v, log_scale, out = half, 0.0, []
    for n in range(1, L + 1):
        if n > 1:
            v = _apply_transfer(v, half, K)
            norm = float(np.linalg.norm(v))
            v, log_scale = v / norm, log_scale + math.log(norm)
        out.append(log_scale + math.log(float(half @ v)))
    return out


def largest_eigenvalue(M: int, K: float) -> float:
    """Lambda_0 by power iteration from the flip-symmetric state w, whose
    sector holds Lambda_0 and not the next eigenvalue Lambda_1."""
    half = _half_column_weights(M, K)
    u, previous = half / np.linalg.norm(half), 0.0
    for _ in range(1000):
        t = _apply_transfer(u, half, K)
        rayleigh = float(u @ t)
        if abs(rayleigh - previous) <= 1e-15 * rayleigh:
            return rayleigh
        u, previous = t / np.linalg.norm(t), rayleigh
    raise AssertionError("power iteration did not converge")


def lattice_psi(M: int, K: float) -> float:
    """M [log Z(M + 1) - log Z(M) - log Lambda_0] of the M x M lattice."""
    log_z = log_partition_functions(M + 1, M, K)
    return M * (log_z[M] - log_z[M - 1] - math.log(largest_eigenvalue(M, K)))


def test_transfer_matrix_matches_enumeration():
    # Z of a 3 x 4 lattice from all 2^12 configurations, and Lambda_0 of
    # the dense 16 x 16 matrix
    L, M, K = 3, 4, 0.37
    total = 0.0
    for s in itertools.product((-1, 1), repeat=L * M):
        grid = np.array(s).reshape(L, M)
        total += math.exp(K * ((grid[:, :-1] * grid[:, 1:]).sum()
                               + (grid[:-1] * grid[1:]).sum()))
    assert math.isclose(log_partition_functions(L, M, K)[-1], math.log(total), rel_tol=1e-14)
    dense = np.column_stack([_apply_transfer(e, _half_column_weights(M, K), K)
                             for e in np.eye(2 ** M)])
    assert math.isclose(largest_eigenvalue(M, K), np.linalg.eigvalsh(dense)[-1], rel_tol=1e-13)


def test_critical_strip_force_from_the_lattice():
    # measured gaps: -1.15e-4, -5.9e-5 and -2.6e-5 at M = 8, 10 and 12
    gaps = []
    for M in (8, 10, 12):
        point = lattice_to_scaling(Z_CRITICAL, M, M)
        assert point.x == 0.0
        gaps.append(lattice_psi(M, K_CRITICAL) - psi_strip(point.x, (M + 0.5) / M, 8))
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
    assert abs(gaps[2]) < 4e-5
