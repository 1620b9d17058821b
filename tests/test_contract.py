"""The whole-plane error contract on a subset of its sweep, in the library and the CLI.

error_contract.py holds the documented (exception, message pattern) pairs and
sweeps the full grid (CI runs it under -W error); these cells cover each pair
and each region of casimir._regime in about half a second.
"""

import re

import pytest

from casimir_rect import cli
from error_contract import ALLOWED, ITEM_4, outcome

# (x, rho): (theta_total's outcome, vartheta_total's outcome).  All but the
# last two are cells of the sweep; those two reach I1's floor, which the
# sweep's grid does not.
SUBSET = {
    (0.0, 1.0): ("divergent", "finite"),
    # rho^2 is 0.0: decided before the divergence at x = 0
    (0.0, 1e-300): ("rho^-2", "rho^-2"),
    (1.0, 1e-300): ("rho^-2", "rho^-2"),
    (1e300, 2.0): ("x^2", "x^2"),
    # the ordered-phase potential needs no zero
    (-1e300, 0.5): ("finite", "x^2"),
    (-360.0, 1.0): ("finite", "range"),
    (-400.0, 2.0): ("finite", "non-finite"),
    (-1000.0, 1.0): ("finite", "zero-division"),
    (1.0, 2.0): ("finite", "finite"),
    (-1.0, 0.5): ("finite", "finite"),
    (1e5, 1e300): ("finite", "finite"),
    (-1e-6, 0.05): ("finite", "finite"),
    (20.0, 1e-100): ("finite", "finite"),
    (-100.0, 1e3): ("finite", "finite"),
    (1.5e-300, 0.5): ("floor", "finite"),
    (1e-301, 2.0): ("floor", "finite"),
}
NAMES = ("theta_total", "vartheta_total")


def library_cells():
    for (x, rho), kinds in SUBSET.items():
        for name, kind in zip(NAMES, kinds):
            marks = ()
            if kind in ITEM_4:  # the contract asks for a finite value there
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                    f"ROADMAP item 4: the force's weights leave the linear domain in the "
                    f"ordered phase and raise the {kind!r} pair"))
                kind = "finite"
            yield pytest.param(name, x, rho, kind, marks=marks, id=f"{name}-{x!r}-{rho!r}")


@pytest.mark.parametrize("name, x, rho, expected", library_cells())
def test_cell_is_finite_or_documented(name, x, rho, expected):
    assert outcome(name, x, rho) == expected


@pytest.mark.parametrize("command", ["theta-table", "vartheta-table"])
@pytest.mark.parametrize("x, rho", list(SUBSET), ids=repr)
def test_cli_exit_code(capsys, command, x, rho):
    # a ValueError cell exits 1, an ArithmeticError or RuntimeError cell 2,
    # each with one stderr line; the potential's x = 0 row is a note
    kind = SUBSET[x, rho][command == "vartheta-table"]
    argv = [command, f"--x-min={x!r}", f"--x-max={x!r}", "--steps", "1", "--rho", repr(rho)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if command == "theta-table" and x == 0.0:
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(",,divergent")
    elif kind == "finite":
        assert (code, len(out.splitlines()), err) == (0, 2, "")
    else:
        error, pattern = ALLOWED[command.replace("-table", "_total")][kind]
        prefix = "error: " if issubclass(error, ValueError) else "numerical failure: "
        assert (code, out) == (1 if issubclass(error, ValueError) else 2, "")
        assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
        assert re.fullmatch(pattern, err[len(prefix):-1])
