"""Test-only oracle for the force: the determinant route at every aspect ratio.

vartheta(x, rho) = -theta_oo(x) + d(log det(1 + Y))/d(rho)
                 = -theta_oo(x) + tr((1 + Y)^-1 dY/drho),

with Y the residual matrix of sigma.sigma_det on the leading modes x modes
block, built from the package's zeros and weights.  It holds at rho < 1 too,
where the package goes through the exchange symmetry and the derivative
stencil instead, and the truncation error e^(-2 pi rho modes) stays far below
the doubles' resolution from rho = 0.5 on with 16 modes.
"""

from __future__ import annotations

import numpy as np

from casimir_rect import find_zeros, theta_oo, weight


def vartheta_direct(x: float, rhos, modes: int) -> list[float]:
    """[vartheta(x, rho) for rho in rhos] by the determinant route on modes x modes."""
    zs = find_zeros(2 * modes, x)
    phi_sq = np.array([z.phi_sq for z in zs])
    gamma = np.array([z.gamma for z in zs])
    v = np.array([rec.v for rec in weight(range(1, 2 * modes + 1), x)])
    t_eo = 1.0 / (phi_sq[0::2][None, :] - phi_sq[1::2][:, None])
    t_oe = 1.0 / (phi_sq[1::2][None, :] - phi_sq[0::2][:, None])
    oo = theta_oo(x)
    out = []
    for rho in rhos:
        w = v * np.exp(-rho * gamma)
        dw = -gamma * w
        left, right = w[1::2, None] * t_eo, w[0::2, None] * t_oe
        y = -left @ right
        dy = -(dw[1::2, None] * t_eo) @ right - left @ (dw[0::2, None] * t_oe)
        out.append(-oo + float(np.trace(np.linalg.solve(np.eye(modes) + y, dy))))
    return out
