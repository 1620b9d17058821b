"""30-digit mpmath values of log eta(i*rho) and E2(i*rho) by direct q-series.

    python tests/mp_qseries.py 1e-2 1e-3 1e-4

prints log eta and E2 at each rho.  Both come from the sums at the nome
q = exp(-2*pi*rho) itself, not through the modular relations the library
uses below rho = 1:

    log eta(i*rho) = -pi*rho/12 + sum_j log(1 - q^j),
    E2(i*rho) = 1 - 24 sum_j j q^j / (1 - q^j).

The sums stop at q^j < 1e-40 and run 10 digits above the 30 kept, since
1 - q^j cancels for q near 1.  At rho = 1e-4 that is about 150000 terms,
so the tests hold the printed values rather than calling this.
"""

import sys

import mpmath as mp


def qseries(rho_text: str, dps: int = 30):
    """(log eta(i*rho), E2(i*rho)) at rho given as text."""
    with mp.workdps(dps + 10):
        rho = mp.mpf(rho_text)
        q = mp.exp(-2 * mp.pi * rho)
        stop = mp.mpf(10) ** -(dps + 10)
        log_poch, e2_sum, qj, j = 0, 0, mp.mpf(1), 0
        while True:
            j += 1
            qj *= q
            if qj < stop:
                break
            log_poch += mp.log(1 - qj)
            e2_sum += j * qj / (1 - qj)
        return -mp.pi * rho / 12 + log_poch, 1 - 24 * e2_sum


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(arg, *(mp.nstr(v, 20) for v in qseries(arg)))
