"""Record each workload's table at the default seed into reference/.

Usage (from the root of a checkout): python3 bench/record_reference.py

Only rerun this on purpose: the reference pins the values that every later
benchmark run is checked against.
"""

from __future__ import annotations

import sys
from pathlib import Path

from check import REFERENCE_DIR
from run import Checkout, cli_args, spawn
from workloads import DEFAULT_SEED, WORKLOADS, invocation


def main() -> int:
    checkout = Checkout.at(Path.cwd())
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        run = spawn(checkout, cli_args(invocation(workload, DEFAULT_SEED)))
        if run.returncode != 0:
            print(f"{name}: exit code {run.returncode}\n{run.stderr}", file=sys.stderr)
            return 1
        (REFERENCE_DIR / f"{name}.csv").write_text(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
