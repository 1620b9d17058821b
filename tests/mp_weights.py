"""30-digit mpmath values of the mode weights v_mu(x).

    python tests/mp_weights.py 0.37 -4 -12

prints v_mu for mu in {1, 2, 8, 16} at each x.  The zeros come from
mp.findroot on cos(F) + (x/F) sin(F), or on y coth(y) = -x for the imaginary
first zero at x < -1.  The weight is

    v_mu = +-4 (gamma - x) gamma^2 / (gamma^2 + x) * exp[(sigma/pi) I],
    I = Int_0^inf log|1 + (x^2 + s^2)/phi_sq| (x - s^2) / (t (t cosh t + x sinh t)) ds,

with t = sqrt(x^2 + s^2), by tanh-sinh quadrature split where the kernel
changes scale; the minus sign belongs to the imaginary zero.  For x < -1 the
kernel has a spike of width gamma_1 at s = 0 and t + x tanh(t) cancels, so
the work runs 20 digits above the 30 kept.  The four weights of one x take
about 1.5 s, so the tests hold the printed values rather than calling this.
"""

import sys

import mpmath as mp

MODES = (1, 2, 8, 16)


def zero(mu: int, x):
    """(phi_sq, gamma) of the mu-th zero at x."""
    if mu == 1 and x < -1:
        y = mp.findroot(lambda y: y / mp.tanh(y) + x, (mp.mpf("1e-6"), -x), solver="anderson")
        phi_sq = -y * y
    else:
        lo, hi = ((mu - 0.5) * mp.pi, mu * mp.pi) if x > 0 else ((mu - 1) * mp.pi, (mu - 0.5) * mp.pi)
        lo = max(lo, mp.mpf("1e-6"))
        f = mp.findroot(lambda f: mp.cos(f) + x * mp.sin(f) / f, (lo, hi), solver="anderson")
        phi_sq = f * f
    return phi_sq, mp.sqrt(x * x + phi_sq)


def weight(mu: int, x_text: str, dps: int = 30):
    with mp.workdps(dps + 20):
        x = mp.mpf(x_text)
        phi_sq, gamma = zero(mu, x)
        sigma = 1 if mu % 2 else -1

        def f(s):
            t = mp.sqrt(x * x + s * s)
            kernel = (x - s * s) / (t * (t * mp.cosh(t) + x * mp.sinh(t)))
            return mp.log(abs(1 + (x * x + s * s) / phi_sq)) * kernel

        scale = zero(1, x)[1] if x < -1 else abs(x)
        pts = {mp.mpf(0), *(scale * mp.mpf(10) ** k for k in range(-3, 3)),
               *(mp.mpf(2) ** k for k in range(-2, 8)), abs(x), abs(x) + 1}
        integral = mp.quad(f, sorted(pts) + [mp.inf])
        sign = -1 if phi_sq < 0 else 1
        g2 = gamma * gamma
        return sign * 4 * (gamma - x) * g2 / (g2 + x) * mp.exp(sigma / mp.pi * integral)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(arg, *(mp.nstr(weight(mu, arg), 20) for mu in MODES))
