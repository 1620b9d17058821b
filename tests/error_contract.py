"""The whole-plane error contract of the potential and the force, and its sweep.

theta_total and vartheta_total return a finite float at every (x, rho) of the
plane, or raise one of the DOCUMENTED (exception, message pattern) pairs.  The
force still raises the three ITEM_4 pairs in the ordered phase, where its
weights leave the linear domain (ROADMAP item 4); each comes off this table
when that region returns a finite value.

    PYTHONPATH=src python -W error tests/error_contract.py

sweeps the full XS x RHOS grid for both functions, prints the count of each
outcome, and exits 1 if a cell is neither finite nor a listed pair.  Under
-W error a warning that escapes the package fails its cell too.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter

from casimir_rect.casimir import theta_total, vartheta_total
from casimir_rect.quad import QuadratureError

DOCUMENTED = {
    # rho^2 is 0.0, or rho^-2 carries the exchanged value out of the doubles
    "rho^-2": (OverflowError,
               r"rho\^-2 times the exchanged value at rho = \S+ overflows the doubles"),
    # the zeros' dispersion function needs x^2
    "x^2": (OverflowError, r"zero mu=\d+ at x=\S+: x\^2 overflows the doubles"),
    # the potential's corner log divergence
    "divergent": (ValueError, r"divergent at x = 0; see casimir_amplitude"),
    # I1, and so the potential, is evaluated at x min(rho, 1) down to 1e-300
    "floor": (ValueError,
              r"\|x( rho)?\| < 1e-300 is beyond double precision here, got x = \S+, rho = \S+"),
}
ITEM_4 = {
    "range": (OverflowError, r"math range error"),
    "non-finite": (QuadratureError, r"non-finite integrand value in panel \[\S+, \S+\]"),
    "zero-division": (ZeroDivisionError, r"float division by zero"),
}
FUNCTIONS = {"theta_total": theta_total, "vartheta_total": vartheta_total}
# only the force raises the ITEM_4 pairs
ALLOWED = {"theta_total": DOCUMENTED, "vartheta_total": {**DOCUMENTED, **ITEM_4}}
XS = (1e300, -1e300, 1e5, -1e5, 1000.0, -1000.0, -400.0, -360.0, 100.0, -100.0,
      20.0, -20.0, 1.0, -1.0, 1e-6, -1e-6, 0.0)
RHOS = (1e-300, 1e-100, 1e-3, 0.05, 0.5, 1.0, 2.0, 1e3, 1e100, 1e300)


def outcome(name: str, x: float, rho: float) -> str:
    """"finite", or the key of the listed pair that FUNCTIONS[name](x, rho) raises.

    Any other value or error raises AssertionError naming the cell.
    """
    cell = f"{name}({x!r}, {rho!r})"
    try:
        value = FUNCTIONS[name](x, rho)
    except Exception as exc:
        for key, (error, pattern) in ALLOWED[name].items():
            if type(exc) is error and re.fullmatch(pattern, str(exc)):
                return key
        raise AssertionError(f"{cell} raised an unlisted {type(exc).__name__}: {exc}") from exc
    if not (type(value) is float and math.isfinite(value)):
        raise AssertionError(f"{cell} returned {value!r}")
    return "finite"


def main() -> int:
    failed = 0
    for name in FUNCTIONS:
        counts = Counter()
        for x in XS:
            for rho in RHOS:
                try:
                    counts[outcome(name, x, rho)] += 1
                except AssertionError as exc:
                    print(exc, file=sys.stderr)
                    failed += 1
        print(name, dict(sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
