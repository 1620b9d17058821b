"""60-digit mpmath values of the first zero next to its degeneracy at x = -1.

    python tests/mp_zeros.py

prints x, phi_sq and gamma of the first zero for x = -1 - d and x = -1 + d,
d from 1e-2 down to 2^-52, each x the double nearest -1 +- d.  The zero
comes from mp.findroot on cos(F) + (x/F) sin(F) for x > -1, and on
cosh(y) + (x/y) sinh(y) for the imaginary zero F = iy at x < -1; both
brackets are [sqrt(|1 + x|), 2 sqrt(|1 + x|)], since F^2 is about 3(1 + x).
Both forms cancel to about |1 + x| of their unit size, so the work runs 60
digits to keep the 20 printed.
"""

import mpmath as mp

OFFSETS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 2.0 ** -52)
XS = sorted(x for d in OFFSETS for x in (-1.0 - d, -1.0 + d))


def first_zero(x: float):
    """(phi_sq, gamma) of the first zero at the double x."""
    with mp.workdps(60):
        x = mp.mpf(x)
        root = mp.sqrt(abs(1 + x))
        if x > -1:
            f = mp.findroot(lambda f: mp.cos(f) + x * mp.sin(f) / f, (root, 2 * root),
                            solver="anderson")
            phi_sq = f * f
        else:
            y = mp.findroot(lambda y: mp.cosh(y) + x * mp.sinh(y) / y, (root, 2 * root),
                            solver="anderson")
            phi_sq = -y * y
        return phi_sq, mp.sqrt(x * x + phi_sq)


if __name__ == "__main__":
    for x in XS:
        print(repr(x), *(mp.nstr(v, 20) for v in first_zero(x)))
