"""Walk through the mode spectrum of the open Ising strip near criticality.

The scaled spectrum is set by the zeroes of cos(F) + (x/F) sin(F), where x
is the temperature scaling variable.  Above criticality (x > 0) the zeroes
sit between the half-integer and integer multiples of pi; as x decreases
they slide down, the first one reaching the origin at x = -1 and moving
onto the imaginary axis below.  Each zero carries a decay rate
gamma = sqrt(x^2 + F^2), the scaled transfer-matrix gap of its mode.
"""

import math

from casimir_rect import find_zero, find_zeros

print("Zero table (first four zeroes; 'i' marks the imaginary first zero)")
print(f"{'x':>4} | {'F_1':>14} {'F_2':>12} {'F_3':>12} {'F_4':>12}")
for x in range(-4, 5):
    cells = []
    for rec in find_zeros(4, float(x)):
        if rec.phi_sq < 0:
            cells.append(f"{math.sqrt(-rec.phi_sq):.9f}i")
        else:
            cells.append(f"{math.sqrt(rec.phi_sq):.9f} ")
    print(f"{x:>4} | {cells[0]:>14} {cells[1]:>12} {cells[2]:>12} {cells[3]:>12}")

print()
print("Decay rates gamma_mu = sqrt(x^2 + F_mu^2) at x = -1:")
for rec in find_zeros(4, -1.0):
    print(f"  mu = {rec.mu}: gamma = {rec.gamma:.12f}  (parity {rec.sigma:+d})")

print()
print("Deep in the ordered phase the first gap closes exponentially:")
for x in (-5.0, -10.0, -15.0):
    z = find_zero(1, x)
    print(f"  x = {x:6.1f}: gamma_1 = {z.gamma:.6e}   (~ 2|x| e^-|x| = "
          f"{2 * abs(x) * math.exp(-abs(x)):.6e})")

print()
print("Large-mu expansion F^2 = F0^2 + 2x - x^2(2x + 3)/(3 F0^2), F0 = (mu - 1/2) pi,")
print("vs the root finder (x = -2):")
x = -2.0
for mu in (5, 10, 20):
    f0_sq = ((mu - 0.5) * math.pi) ** 2
    series = f0_sq + 2.0 * x - x * x * (2.0 * x + 3.0) / (3.0 * f0_sq)
    exact = find_zero(mu, x).phi_sq
    print(f"  mu = {mu:2d}: F^2 series = {series:.12f}, exact = {exact:.12f}, "
          f"diff = {series - exact:.2e}")
