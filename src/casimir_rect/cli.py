"""Command-line front end emitting reproducible tables of scaling functions.

Subcommands cover the package's main artifacts: zero tables, weight tables,
the two partition-function routes, potential and force grids, critical
closed forms, the named constants, the force sign-change ratio, and the
effective-spin cross-check.  Output is CSV or JSON with full round-trip
precision and is byte-identical for identical configurations.

Exit codes: 0 success, 1 invalid arguments (including NaN or infinite
numbers), 2 numerical non-convergence or arithmetic failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, casimir, effspin, roots, sigma, specialfn, strip
from . import thermo_constants, weights
from .tables import FunctionTable, emit_table

__all__ = ["main"]


def _x_grid(params: dict) -> list[float]:
    lo, hi, steps = params["x_min"], params["x_max"], params["steps"]
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _cmd_zeros(p: dict) -> FunctionTable:
    table = FunctionTable(["mu", "phi", "phi_sq", "gamma"])
    for rec in roots.find_zeros(p["count"], p["x"]):
        if rec.phi_sq < 0.0:
            phi_repr = format(math.sqrt(-rec.phi_sq), ".17g") + "i"
        else:
            phi_repr = format(math.sqrt(rec.phi_sq), ".17g")
        table.add_row(rec.mu, phi_repr, rec.phi_sq, rec.gamma)
    return table


def _cmd_weights(p: dict) -> FunctionTable:
    table = FunctionTable(["mu", "v", "method"])
    for rec in weights.weight(range(1, p["count"] + 1), p["x"]):
        table.add_row(rec.mu, rec.v, rec.method)
    return table


def _cmd_sigma(p: dict) -> FunctionTable:
    x, rho = p["x"], p["rho"]
    table = FunctionTable(["x", "rho", "sigma_series", "sigma_det", "Psi", "psi"])
    series = sigma.sigma_series(x, rho, p["order"]).value
    det = sigma.sigma_det(x, rho, p["modes"]).value
    table.add_row(x, rho, series, det,
                  sigma.Psi(x, rho, p["order"]), sigma.psi_strip(x, rho, p["order"]))
    return table


def _cmd_theta_table(p: dict) -> FunctionTable:
    xs = _x_grid(p)
    columns = [None if x == 0.0 else casimir.theta_column(x, p["rho"])
               for x in xs]
    table = FunctionTable(["x", "rho", "theta_total", "note"])
    for i, rho in enumerate(p["rho"]):
        for x, column in zip(xs, columns):
            if column is None:
                table.add_row(x, rho, None, "divergent")
            else:
                table.add_row(x, rho, column[i], "")
    return table


def _cmd_vartheta_table(p: dict) -> FunctionTable:
    xs = _x_grid(p)
    columns = [casimir.vartheta_column(x, p["rho"]) for x in xs]
    table = FunctionTable(["x", "rho", "vartheta"])
    for i, rho in enumerate(p["rho"]):
        for x, column in zip(xs, columns):
            table.add_row(x, rho, column[i])
    return table


def _cmd_critical(p: dict) -> FunctionTable:
    table = FunctionTable(["rho", "sigma0", "Delta0", "vartheta0", "psi0"])
    for rho in p["rho"]:
        sigma0 = math.exp(-0.25 * specialfn.log_q_pochhammer(rho))
        table.add_row(rho, sigma0, casimir.casimir_amplitude(rho),
                      casimir.vartheta_total(0.0, rho),
                      math.pi / 48.0 * (specialfn.eisenstein_E2(rho) - 1.0))
    return table


def _cmd_constants(p: dict) -> FunctionTable:
    table = FunctionTable(["name", "value"])
    table.add_row("z_critical", casimir.Z_CRITICAL)
    table.add_row("catalan", specialfn.catalan_constant())
    table.add_row("theta_oo_0", strip.theta_oo(0.0))
    table.add_row("psi_0_1", sigma.psi_strip(0.0, 1.0, 10))
    table.add_row("vartheta_0_1", casimir.vartheta_total(0.0, 1.0, 10))
    table.add_row("rho_0", casimir.find_rho0())
    table.add_row("v1_x_neg1", weights.weight_v(1, -1.0).v)
    table.add_row("surface_critical", thermo_constants.surface_critical_value())
    table.add_row("corner_constant",
                  thermo_constants.corner_free_energy(1e-3).terms["constant"])
    return table


def _cmd_effspin_check(p: dict) -> FunctionTable:
    x, rho, n = p["x"], p["rho"], p["n"]
    model = effspin.build_model(x, n)
    z_eff = effspin.enumerate_partition(model, rho)
    matched = effspin.matched_series(x, rho, n)
    mag = effspin.magnetization(model, rho)
    psi_val = sigma.psi_strip(x, rho, max(1, (2 * n - 1) // 4))
    table = FunctionTable(["n_spins", "z_eff", "sigma_matched", "z_diff",
                           "magnetization", "psi"])
    table.add_row(n, z_eff, matched, abs(z_eff - matched), mag, psi_val)
    return table


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
            return 0
        table = _BUILDERS[ns.command](params)
        meta = {"tool": "casimir-rect", "version": __version__,
                "command": ns.command, "params": params}
        if ns.output:
            with open(ns.output, "w", newline="\n") as fh:
                emit_table(table, ns.format, fh, meta)
        else:
            emit_table(table, ns.format, sys.stdout, meta)
        return 0
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
