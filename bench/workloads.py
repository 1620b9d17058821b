"""Benchmark workloads: seeded casimir-rect CLI invocations.

Each workload is one table command over an x grid and a list of aspect
ratios.  The default seed gives the canonical grid, whose output is stored
under reference/.  Any other seed shifts the whole x grid by a fraction of
one grid step and draws the aspect ratios uniformly from the workload's
fixed range, so every seed does comparable work on inputs the program has
not seen before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Largest grid shift as a share of one step.  Small enough that the
# potential grid stays clear of x = 0 and no |x| crosses the I2 split at 4,
# so every seed does comparable work.
MAX_SHIFT = 0.1


@dataclass(frozen=True)
class Workload:
    """One CLI table command and the input ranges its seed draws from."""

    name: str
    command: str  # vartheta-table | theta-table
    x_min: float
    x_max: float
    steps: int
    rho_range: tuple[float, float]
    canonical_rho: tuple[float, ...]


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rho_scan",
        command="vartheta-table", x_min=-12.0, x_max=12.0, steps=12,
        rho_range=(1.0, 5.0), canonical_rho=_linspace(1.0, 5.0, 160)),
    Workload(
        name="slab_force",
        command="vartheta-table", x_min=-15.0, x_max=15.0, steps=13,
        rho_range=(0.55, 0.9), canonical_rho=(0.55, 0.725, 0.9)),
    Workload(
        name="potential_grid",
        command="theta-table", x_min=-2.0, x_max=5.0, steps=2,
        rho_range=(1.0, 3.0), canonical_rho=(1.0, 1.5, 2.0, 3.0)),
)}


@dataclass(frozen=True)
class Invocation:
    """The generated CLI arguments and the grid they must reproduce."""

    argv: tuple[str, ...]
    xs: tuple[float, ...]
    rhos: tuple[float, ...]

    @property
    def rows(self) -> int:
        return len(self.xs) * len(self.rhos)


def x_grid(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """The grid the CLI builds from --x-min/--x-max/--steps."""
    if steps == 1:
        return (lo,)
    return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))


def invocation(workload: Workload, seed: int) -> Invocation:
    """Deterministic CLI arguments for one workload and seed."""
    lo, hi, rhos = workload.x_min, workload.x_max, workload.canonical_rho
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{workload.name}/{seed}")
        step = (hi - lo) / (workload.steps - 1)
        shift = rng.uniform(-MAX_SHIFT, MAX_SHIFT) * step
        lo, hi = round(lo + shift, 9), round(hi + shift, 9)
        r_lo, r_hi = workload.rho_range
        rhos = tuple(sorted(round(rng.uniform(r_lo, r_hi), 9) for _ in rhos))
    argv = [workload.command, "--x-min", repr(lo), "--x-max", repr(hi),
            "--steps", str(workload.steps)]
    for rho in rhos:
        argv += ["--rho", repr(rho)]
    return Invocation(argv=tuple(argv), xs=x_grid(lo, hi, workload.steps), rhos=rhos)
