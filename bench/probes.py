"""Cold single-layer probes, one per fresh process.

Usage: python bench/probes.py NAME

Imports casimir_rect, times one call of the named layer with every cache
empty, and prints {"s": seconds, "value": checksum} as JSON.  The probes
are the per-layer timings of the project roadmap: a batch of zeros, 16
weights at one x, both Sigma routes, the strip potential, the I1 integral,
a cold surface-corner potential (which runs I2) and x * theta_sc'(x).
"""

from __future__ import annotations

import json
import sys
import time

X = 0.37  # one generic x > 0, away from the special points 0 and -1

# name -> the call it times, given the imported casimir_rect package
PROBES = {
    "zeros16": lambda cr: sum(z.phi_sq for z in cr.roots.find_zeros(16, X)),
    "weights16": lambda cr: sum(cr.weights.weight_v(mu, X).v for mu in range(1, 17)),
    "sigma_series": lambda cr: cr.sigma.sigma_series(X, 1.0, 8).value,
    "sigma_det": lambda cr: cr.sigma.sigma_det(X, 1.0, 16).value,
    "theta_oo": lambda cr: cr.strip.theta_oo(X),
    "integral_I1": lambda cr: cr.casimir.integral_I1(X),
    "theta_sc_cold": lambda cr: cr.casimir.theta_sc(0.5),
    "x_dtheta_sc": lambda cr: cr.casimir.x_dtheta_sc(X),
}


def main(name: str) -> None:
    import casimir_rect

    probe = PROBES[name]
    start = time.perf_counter()
    value = probe(casimir_rect)
    elapsed = time.perf_counter() - start
    print(json.dumps({"s": elapsed, "value": value}))


if __name__ == "__main__":
    main(sys.argv[1])
