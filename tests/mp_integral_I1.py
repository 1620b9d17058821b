"""40-digit mpmath values of the dilogarithm integral I1 at given x.

    python tests/mp_integral_I1.py -1e-10 -1e-12 1e-12

Evaluates I1 = -(1/2pi) Int_0^inf Li2(-B(s)) / sqrt(x^2+s^2) ds, with B in
the same cancellation-free form as strip.decay_factor, by tanh-sinh
quadrature split at |x| 10^k so that the layer of width |x| at s = 0 is
resolved.  Each value takes several seconds, so the tests hold the printed
values rather than calling this.
"""

import sys

import mpmath as mp


def integral_I1(x_text: str, dps: int = 40):
    with mp.workdps(dps):
        x = mp.mpf(x_text)

        def f(s):
            g = mp.sqrt(s * s + x * x)
            r = (s / (g + x)) ** 2 if x > 0 else ((g - x) / s) ** 2
            return mp.polylog(2, -r * mp.exp(-2 * g)) / g

        a = abs(x)
        pts = {mp.mpf(0), mp.mpf(1), *(a * mp.mpf(10) ** k for k in range(-30, 1)),
               *(mp.mpf(10) ** k for k in range(int(mp.log10(a)) + 1, 0)),
               *(mp.mpf(2) ** k for k in range(1, 7))}
        return -mp.quad(f, sorted(pts)) / (2 * mp.pi)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(arg, mp.nstr(integral_I1(arg), 20))
