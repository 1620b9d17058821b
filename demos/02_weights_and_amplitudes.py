"""Mode weights and the amplitudes of the residual partition-function series.

Each zero carries a weight v_mu(x) computed from a contour-reduced kernel
integral.  At the critical point the weights collapse to closed forms in
the Euler beta function (v_1 = pi^2/2, v_2 = 2 pi^2, ...), and exactly at
x = -1 the degenerate first zero leaves the finite combination
v_1 = 6.39303337215...  Balanced index sets combine weights and zero
positions into the amplitudes a_s of the exponential series for the strip
residual partition function.
"""

import math

from casimir_rect import (
    amplitude,
    enumerate_sets,
    weight_v,
    weight_v_closed_x0,
)

print("Critical-point weights: contour integral vs closed form")
for mu in range(1, 7):
    closed = weight_v_closed_x0(mu).v
    contour = weight_v(mu, 0.0).v
    print(f"  mu = {mu}: closed = {closed:.12f}, contour = {contour:.12f}, "
          f"rel diff = {(contour - closed) / closed:.1e}")

print()
v1 = weight_v(1, -1.0).v
print(f"Degenerate-point weight v_1(-1) = {v1:.11f}  (reference 6.39303337215)")
print("Continuity across x = -1:")
for eps in (1e-2, 1e-3, 1e-4):
    print(f"  v_1(-1+{eps:g}) = {weight_v(1, -1.0 + eps).v:.8f}   "
          f"v_1(-1-{eps:g}) = {weight_v(1, -1.0 - eps).v:.8f}")

print()
print("Balanced index sets (equal odd/even counts, weight sum 2n):")
for n in range(1, 5):
    sets = enumerate_sets(n)
    print(f"  order {n}: {len(sets)} set(s): {sets}")

print()
print("Amplitudes and exponents at x = +1 (order <= 2):")
print(f"  {'set':>12} {'a_s':>16} {'Gamma_s/2pi':>16}")
for s in [(1, 2), (3, 2), (1, 4)]:
    term = amplitude(s, 1.0)
    print(f"  {str(s):>12} {term.a:>16.11f} {term.gamma_sum / (2 * math.pi):>16.11f}")
