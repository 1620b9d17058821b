"""Correctness check of one CLI table against its expected grid and reference.

Every run must exit 0, print one row per (rho, x) pair in the CLI's order
(rho outer, x inner) with the requested x and rho echoed, and carry a
finite value in every row.  At the default seed the values are also
compared with the table recorded in reference/ at the commit that
introduced the benchmark.

The tolerance |got - ref| <= RTOL*|ref| + ATOL is loose enough for a
re-derived quadrature at the acceptance suite's accuracy (its tightest
force and potential checks are 1e-9 to 1e-12 absolute; the quadratures run
at 1e-12 to 1e-13) and tight enough that truncating the Sigma series at
order 3 instead of 8 fails at rho = 1, where it moves the force by up to
9e-10 (order 4 would move it by 1e-12 and pass).
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from workloads import Invocation

RTOL = 1e-8
ATOL = 1e-10
GRID_TOL = 1e-12  # echoed x and rho must match the request to rounding

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_table(text: str) -> list[tuple[float, float, float]]:
    """(x, rho, value) per row of a theta-table or vartheta-table CSV."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or header[:2] != ["x", "rho"]:
        raise ValueError(f"unexpected header {header!r}")
    rows = []
    for fields in reader:
        rows.append((float(fields[0]), float(fields[1]),
                     float(fields[2]) if fields[2] else math.nan))
    return rows


def load_reference(workload: str) -> list[tuple[float, float, float]]:
    return parse_table((REFERENCE_DIR / f"{workload}.csv").read_text())


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def check_table(inv: Invocation, returncode: int, stdout: str,
                reference: list[tuple[float, float, float]] | None = None) -> str | None:
    """The first problem found with one run's output, or None if correct."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        rows = parse_table(stdout)
    except (ValueError, IndexError) as exc:
        return f"unparsable output: {exc}"
    if len(rows) != inv.rows:
        return f"{len(rows)} rows, expected {inv.rows}"
    expected = [(x, rho) for rho in inv.rhos for x in inv.xs]
    for i, ((x, rho, value), (want_x, want_rho)) in enumerate(zip(rows, expected)):
        if not (_close(x, want_x, 0.0, GRID_TOL) and _close(rho, want_rho, 0.0, GRID_TOL)):
            return f"row {i}: point ({x}, {rho}), expected ({want_x}, {want_rho})"
        if not math.isfinite(value):
            return f"row {i}: non-finite value {value} at ({x}, {rho})"
    if reference is not None:
        if len(reference) != len(rows):
            return f"{len(rows)} rows, reference has {len(reference)}"
        for i, ((x, rho, value), (_, _, ref)) in enumerate(zip(rows, reference)):
            if not _close(value, ref, RTOL, ATOL):
                return (f"row {i}: value {value!r} at ({x}, {rho}) differs from "
                        f"reference {ref!r}")
    return None

