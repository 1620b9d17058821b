"""Command-line front end emitting reproducible tables of scaling functions.

Subcommands cover the package's main artifacts: zero tables, weight tables,
the two partition-function routes, potential and force grids, critical
closed forms, the named constants, the force sign-change ratio, and the
effective-spin cross-check.  Each builder computes its table and returns
(columns, rows); main writes them with tables.emit_table, as CSV or JSON with
full round-trip precision, byte-identical for identical configurations.

Exit codes: 0 success, 1 invalid arguments (including NaN or infinite
numbers) or an output error (an unwritable --output path, a closed pipe),
2 numerical non-convergence or arithmetic failure.

`run` is the process entry (`casimir-rect` and `python -m casimir_rect.cli`);
`main` runs one command line in process and leaves the caller's GC alone.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import NoReturn

from . import __version__, casimir, effspin, roots, sigma, specialfn, strip
from . import thermo_constants, weights
from .tables import emit_table

__all__ = ["main", "run"]

# the largest sigma --order: time and memory grow about 4x per 8 orders, while
# the truncation bound e^(-2 pi rho N) at sigma.MIN_RHO = 0.5 is 4e-17 at N = 12
_MAX_ORDER = 24
# the largest sigma --modes: sigma_det builds modes x modes matrices, while the
# truncation bound e^(-2 pi rho modes) at sigma.MIN_RHO = 0.5 is below the
# smallest double from about 237 modes on
_MAX_MODES = 256
# the most rows (--steps times the --rho count) of a grid table: the grid and
# its values are built before the first row is written, about 0.3 KB per x,
# and a force row takes about 1.3 ms
_MAX_ROWS = 10**6
# the largest zeros and weights --count: time and memory grow linearly with it
# (a million zeros at x = 0.37 take about 40 s and 0.4 GB; 10**4 zeros or
# weights about a second and at most 51 MB)
_MAX_COUNT = 10**4


def _x_grid(params: dict) -> list[float]:
    lo, hi, steps = params["x_min"], params["x_max"], params["steps"]
    rows = steps * len(params["rho"])
    if rows > _MAX_ROWS:
        raise ValueError(f"--steps times the --rho count is at most {_MAX_ROWS}, got {rows}")
    if steps == 1:
        return [lo]
    width = hi - lo
    if math.isfinite(width * (steps - 1)):
        return [lo + width * i / (steps - 1) for i in range(steps)]
    # hi - lo, or a multiple of it, overflows; a weighted mean of the finite ends cannot
    return [lo * (1.0 - t) + hi * t for t in (i / (steps - 1) for i in range(steps))]


def _count(command: str, p: dict) -> int:
    count = p["count"]
    if count > _MAX_COUNT:
        raise ValueError(f"{command} --count is at most {_MAX_COUNT}, got {count}")
    return count


def _cmd_zeros(p: dict) -> tuple:
    rows = []
    for rec in roots.find_zeros(_count("zeros", p), p["x"]):
        imaginary = rec.phi_sq < 0.0
        phi = format(math.sqrt(-rec.phi_sq if imaginary else rec.phi_sq), ".17g")
        rows.append((rec.mu, phi + "i" if imaginary else phi, rec.phi_sq, rec.gamma))
    return ["mu", "phi", "phi_sq", "gamma"], rows


def _cmd_weights(p: dict) -> tuple:
    records = weights.weight(range(1, _count("weights", p) + 1), p["x"])
    return ["mu", "v", "method"], [(rec.mu, rec.v, rec.method) for rec in records]


def _cmd_sigma(p: dict) -> tuple:
    x, rho, order, modes = p["x"], p["rho"], p["order"], p["modes"]
    if order > _MAX_ORDER:
        raise ValueError(f"sigma --order is at most {_MAX_ORDER}, got {order}")
    if modes > _MAX_MODES:
        raise ValueError(f"sigma --modes is at most {_MAX_MODES}, got {modes}")
    row = (x, rho, sigma.sigma_series(x, rho, order).value,
           sigma.sigma_det(x, rho, modes).value,
           sigma.Psi(x, rho, order), sigma.psi_strip(x, rho, order))
    return ["x", "rho", "sigma_series", "sigma_det", "Psi", "psi"], [row]


def _cmd_theta_table(p: dict) -> tuple:
    xs = _x_grid(p)
    columns = [None if x == 0.0 else casimir.theta_column(x, p["rho"]) for x in xs]
    rows = ((x, rho, None, "divergent") if column is None else (x, rho, column[i], "")
            for i, rho in enumerate(p["rho"]) for x, column in zip(xs, columns))
    return ["x", "rho", "theta_total", "note"], rows


def _cmd_vartheta_table(p: dict) -> tuple:
    xs = _x_grid(p)
    columns = casimir.vartheta_grid(xs, p["rho"])
    rows = ((x, rho, column[i])
            for i, rho in enumerate(p["rho"]) for x, column in zip(xs, columns))
    return ["x", "rho", "vartheta"], rows


def _cmd_critical(p: dict) -> tuple:
    rows = []
    for rho in p["rho"]:
        try:
            sigma0 = math.exp(-0.25 * specialfn.log_q_pochhammer(rho))
        except OverflowError:  # exp(pi/(48 rho)) from rho ~ 9.2e-5 down
            raise OverflowError(f"sigma0 at rho = {rho} overflows the doubles") from None
        rows.append((rho, sigma0, casimir.casimir_amplitude(rho),
                     casimir.vartheta_total(0.0, rho),
                     math.pi / 48.0 * (specialfn.eisenstein_E2(rho) - 1.0)))
    return ["rho", "sigma0", "Delta0", "vartheta0", "psi0"], rows


def _cmd_constants(p: dict) -> tuple:
    return ["name", "value"], [
        ("z_critical", casimir.Z_CRITICAL),
        ("catalan", specialfn.catalan_constant()),
        ("theta_oo_0", strip.theta_oo(0.0)),
        ("psi_0_1", sigma.psi_strip(0.0, 1.0, 10)),
        ("vartheta_0_1", casimir.vartheta_total(0.0, 1.0, 10)),
        ("rho_0", casimir.find_rho0()),
        ("v1_x_neg1", weights.weight_v(1, -1.0).v),
        ("surface_critical", thermo_constants.surface_critical_value()),
        ("corner_constant", thermo_constants.corner_free_energy(1e-3).terms["constant"]),
    ]


def _cmd_effspin_check(p: dict) -> tuple:
    x, rho, n = p["x"], p["rho"], p["n"]
    model = effspin.build_model(x, n)
    z_eff = effspin.enumerate_partition(model, rho)
    matched = effspin.matched_series(x, rho, n)
    row = (n, z_eff, matched, abs(z_eff - matched), effspin.magnetization(model, rho),
           sigma.psi_strip(x, rho, max(1, (2 * n - 1) // 4)))
    return ["n_spins", "z_eff", "sigma_matched", "z_diff", "magnetization", "psi"], [row]


_BUILDERS = {
    "zeros": _cmd_zeros,
    "weights": _cmd_weights,
    "sigma": _cmd_sigma,
    "theta-table": _cmd_theta_table,
    "vartheta-table": _cmd_vartheta_table,
    "critical": _cmd_critical,
    "constants": _cmd_constants,
    "effspin-check": _cmd_effspin_check,
}


def _finite_float(text: str) -> float:
    """argparse type for the float options: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive(convert):
    """argparse type for counts, orders and aspect ratios: value > 0."""

    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


_positive_int, _positive_float = _positive(int), _positive(_finite_float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-rect",
        description="Universal Casimir scaling functions of the critical "
                    "2D Ising rectangle with open boundaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    sp = sub.add_parser("zeros", help="zero table at one x")
    sp.add_argument("--x", type=_finite_float, required=True)
    sp.add_argument("--count", type=_positive_int, default=4)
    add_common(sp)

    sp = sub.add_parser("weights", help="weight table at one x")
    sp.add_argument("--x", type=_finite_float, required=True)
    sp.add_argument("--count", type=_positive_int, default=8)
    add_common(sp)

    sp = sub.add_parser("sigma", help="partition-function scaling function")
    sp.add_argument("--x", type=_finite_float, required=True)
    sp.add_argument("--rho", type=_positive_float, required=True)
    sp.add_argument("--order", type=_positive_int, default=casimir.DEFAULT_ORDER)
    sp.add_argument("--modes", type=_positive_int, default=16)
    add_common(sp)

    for name, help_text in (("theta-table", "Casimir potential grid"),
                            ("vartheta-table", "Casimir force grid")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--x-min", dest="x_min", type=_finite_float, required=True)
        sp.add_argument("--x-max", dest="x_max", type=_finite_float, required=True)
        sp.add_argument("--steps", type=_positive_int, required=True)
        sp.add_argument("--rho", type=_positive_float, action="append", required=True,
                        help="repeatable")
        add_common(sp)

    sp = sub.add_parser("critical", help="critical-point closed forms")
    sp.add_argument("--rho", type=_positive_float, action="append", required=True)
    add_common(sp)

    sp = sub.add_parser("constants", help="named constants table")
    add_common(sp)

    sp = sub.add_parser("rho0", help="force sign-change aspect ratio")

    sp = sub.add_parser("effspin-check", help="effective-spin equivalence check")
    sp.add_argument("--x", type=_finite_float, required=True)
    sp.add_argument("--rho", type=_positive_float, required=True)
    sp.add_argument("--n", type=_positive_int, default=8)
    add_common(sp)

    return parser


def main(argv=None) -> int:
    """Run one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "format", "output")}
    try:
        if ns.command == "rho0":
            sys.stdout.write(f"{casimir.find_rho0():.12f}\n")
        else:
            columns, rows = _BUILDERS[ns.command](params)
            meta = {"tool": "casimir-rect", "version": __version__,
                    "command": ns.command, "params": params}
            sink = open(ns.output, "w", newline="\n") if ns.output else sys.stdout
            try:
                emit_table(columns, rows, ns.format, sink, meta)
            finally:
                if ns.output:
                    sink.close()
        sys.stdout.flush()  # so that a closed pipe fails here, not at interpreter exit
        return 0
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe: no message; stdout keeps the unwritten
        # text, so it goes to devnull, where the flush at exit cannot fail
        if not getattr(ns, "output", None):  # rho0 has no --output
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Process entry: freeze the heap the imports built, then exit with main's code.

    The module objects live until exit anyway; frozen, they are skipped by
    the collections during the table and by the full ones at interpreter exit.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
