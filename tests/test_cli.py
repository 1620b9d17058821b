"""CLI tests: formats, round-trip precision, determinism, exit codes."""

import contextlib
import gc
import io
import json
import math
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from casimir_rect import casimir, cli, strip, tables, weights
from casimir_rect.quad import QuadratureError
from casimir_rect.tables import CHUNK_ROWS, emit_table, render_value

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
REFERENCE = BENCH / "reference"
# the benchmark workloads' default-seed command lines, built by the benchmark's
# own definitions so that they cannot drift from what bench/reference/ records
_bench = runpy.run_path(str(BENCH / "workloads.py"))
WORKLOAD_ARGV = {name: list(_bench["invocation"](w, _bench["DEFAULT_SEED"]).argv)
                 for name, w in _bench["WORKLOADS"].items()}


# stdout of the commands that no benchmark workload runs, recorded byte for byte
COMMAND_PINS = {
    "constants": """\
name,value
z_critical,0.41421356237309515
catalan,0.91596559417721901
theta_oo_0,-0.065449846949787366
psi_0_1,-0.0029498469497873606
vartheta_0_1,0.0625
rho_0,0.52352170001799925
v1_x_neg1,6.3930333721505672
surface_critical,0.18173141698440587
corner_constant,-0.19322651899666837
""",
    "rho0": "0.523521700018\n",
    "critical --rho 0.6 --rho 1 --rho 2": """\
rho,sigma0,Delta0,vartheta0,psi0
0.59999999999999998,1.0059848854635356,-0.045236955344429036,0.026651778621192349,\
-0.038798068328594983
1,1.0004682802214078,-0.065918017562229494,0.0625,-0.0029498469497873585
2,1.0000008718405298,-0.13090056573972436,0.065444368987913698,-5.4779618736597929e-06
""",
    "sigma --x 1 --rho 1": """\
x,rho,sigma_series,sigma_det,Psi,psi
1,1,1.0001092023681146,1.0001092023681144,-0.00010919640597007347,-0.00079798944065437305
""",
    "effspin-check --x 1 --rho 1": """\
n_spins,z_eff,sigma_matched,z_diff,magnetization,psi
8,1.0001092023681144,1.0001092023681146,2.2204460492503131e-16,0.00079798944065243862,\
-0.00079798934172050674
""",
    "weights --x=-1 --count 8": """\
mu,v,method
1,6.3930333721505672,special_x_neg1
2,26.40982501291953,contour
3,34.2599459593375,contour
4,49.269572135026849,contour
5,59.908350781238624,contour
6,73.903507103481459,contour
7,85.240775632751991,contour
8,98.815976136823636,contour
""",
}


def emitted(columns, rows, format="csv", meta=None):
    """The text emit_table writes for a table."""
    out = io.StringIO()
    emit_table(columns, rows, format, out, meta)
    return out.getvalue()


class TestTables:
    def test_empty_table_renders_header_only(self):
        assert emitted(["a", "b"], []) == "a,b\n"

    def test_one_by_one(self):
        assert emitted(["v"], [(1.5,)]) == "v\n1.5\n"

    def test_round_trip_rendering(self):
        values = [math.pi, 1.0 / 3.0, 6.39303337215, -1e-300, 2.0**-52, 0.1]
        for v in values:
            assert float(render_value(v)) == v

    def test_json_structure(self):
        payload = json.loads(emitted(["a"], [(2.0,)], "json", {"k": 1}))
        assert payload["columns"] == ["a"]
        assert payload["rows"] == [[2.0]]
        assert payload["meta"] == {"k": 1}


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_zeros_table(self, capsys):
        code, out = run_cli(capsys, ["zeros", "--x", "-4", "--count", "4"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,phi,phi_sq,gamma"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1].endswith("i")  # imaginary zero marked
        assert float(first[2]) < 0.0
        assert abs(float(first[1][:-1]) - 3.997302692) < 1e-8
        assert abs(float(lines[4].split(",")[1]) - 10.63585142) < 1e-8

    def test_rho0_single_line(self, capsys):
        code, out = run_cli(capsys, ["rho0"])
        assert code == 0
        assert out == "0.523521700018\n"

    def test_weights_at_zero(self, capsys):
        code, out = run_cli(capsys, ["weights", "--x", "0", "--count", "2"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert float(rows[0].split(",")[1]) == pytest.approx(math.pi**2 / 2.0)
        assert rows[0].split(",")[2] == "closed_form_x0"

    def test_weights_table_from_one_batch(self, capsys, monkeypatch):
        calls = []
        weight_v = weights.weight_v

        def counting(mu, x):
            calls.append((tuple(mu), x))
            return weight_v(mu, x)

        monkeypatch.setattr(weights, "weight_v", counting)
        code, out = run_cli(capsys, ["weights", "--x", "-1", "--count", "8"])
        assert code == 0
        assert calls == [(tuple(range(1, 9)), -1.0)]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0][2] == "special_x_neg1"
        for mu, row in enumerate(rows, start=1):
            assert float(row[1]) == weight_v(mu, -1.0).v
            assert row[2] == ("special_x_neg1" if mu == 1 else "contour")

    def test_vartheta_table(self, capsys):
        code, out = run_cli(capsys, ["vartheta-table", "--x-min", "-1", "--x-max", "1",
                                     "--steps", "3", "--rho", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,rho,vartheta"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_theta_table_divergent_row(self, capsys):
        code, out = run_cli(capsys, ["theta-table", "--x-min", "-1", "--x-max", "1",
                                     "--steps", "3", "--rho", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        row0 = lines[2].split(",")
        assert row0[2] == ""  # blank value, not a sentinel
        assert row0[3] == "divergent"

    def test_sigma_command(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--x", "0", "--rho", "1"])
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[3]), abs=1e-12)

    def test_effspin_check(self, capsys):
        code, out = run_cli(capsys, ["effspin-check", "--x", "1", "--rho", "1", "--n", "6"])
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) < 1e-10  # z_diff

    def test_critical_and_constants(self, capsys):
        code, out = run_cli(capsys, ["critical", "--rho", "1"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[3]) == pytest.approx(0.0625)
        code, out = run_cli(capsys, ["constants"])
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(rows["v1_x_neg1"]) == pytest.approx(6.39303337215, abs=1e-10)
        assert float(rows["rho_0"]) == pytest.approx(0.523521700018, abs=1e-12)

    def test_critical_whole_rho_axis(self, capsys):
        # below rho = 1 the q-series go through the modular relations; at
        # large rho the amplitude's route check scales with the value
        code, out = run_cli(capsys, ["critical", "--rho", "1e-3", "--rho", "1e-4",
                                     "--rho", "1e6"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == [1e-3, 1e-4, 1e6]
        assert all(math.isfinite(v) for row in rows for v in row)
        assert rows[1][2] == pytest.approx(-2613.388707805506274 / 4.0, rel=1e-13)

    def test_critical_at_the_largest_rho(self, capsys):
        # log eta(i rho) ~ -pi rho/12 is a double although pi*rho is not
        code, out = run_cli(capsys, ["critical", "--rho", "1e308"])
        assert code == 0
        row = [float(v) for v in out.strip().split("\n")[1].split(",")]
        assert row[2] == pytest.approx(-math.pi / 48.0 * 1e308, rel=1e-15)

    def test_critical_sigma0_overflow_is_named(self, capsys):
        # sigma0 = exp(pi/(48 rho)) leaves the doubles from rho ~ 9.2e-5 down
        assert cli.main(["critical", "--rho", "1e-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: sigma0 at rho = 1e-05 overflows the doubles\n"


class TestGridColumns:
    """The grid commands evaluate x-outer but print the point functions' values."""

    @staticmethod
    def grid_argv(command, rhos):
        argv = [command, "--x-min", "-2", "--x-max", "2", "--steps", "3"]
        for rho in rhos:
            argv += ["--rho", repr(rho)]
        return argv

    @staticmethod
    def expected_csv(header, rows):
        return "\n".join([header] + [",".join(render_value(v) for v in row)
                                      for row in rows]) + "\n"

    def test_vartheta_rows_equal_point_values(self, capsys):
        rhos = (0.7, 1.0, 2.0)
        code, out = run_cli(capsys, self.grid_argv("vartheta-table", rhos))
        assert code == 0
        rows = [(x, rho, casimir.vartheta_total(x, rho))
                for rho in rhos for x in (-2.0, 0.0, 2.0)]
        assert out == self.expected_csv("x,rho,vartheta", rows)

    def test_theta_rows_equal_point_values(self, capsys):
        rhos = (0.5, 1.0, 2.0)
        code, out = run_cli(capsys, self.grid_argv("theta-table", rhos))
        assert code == 0
        rows = [(x, rho, None, "divergent") if x == 0.0
                else (x, rho, casimir.theta_total(x, rho), "")
                for rho in rhos for x in (-2.0, 0.0, 2.0)]
        assert out == self.expected_csv("x,rho,theta_total,note", rows)

    def test_one_theta_oo_per_distinct_x(self, capsys, monkeypatch):
        calls = []
        theta_oo = strip.theta_oo

        def counting(x):
            calls.append(x)
            return theta_oo(x)

        monkeypatch.setattr(strip, "theta_oo", counting)
        argv = ["vartheta-table", "--x-min", "-1", "--x-max", "1", "--steps", "3"]
        for rho in (1.0, 1.5, 2.0, 3.0, 4.0):
            argv += ["--rho", repr(rho)]
        code, _ = run_cli(capsys, argv)
        assert code == 0
        assert calls == [-1.0, 0.0, 1.0]


class TestDeterminismAndFormats:
    ARGS = ["vartheta-table", "--x-min", "-2", "--x-max", "2", "--steps", "5",
            "--rho", "1", "--rho", "2"]

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, self.ARGS)
        _, out2 = run_cli(capsys, self.ARGS)
        assert out1 == out2

    def test_csv_json_same_numbers(self, capsys):
        _, csv_out = run_cli(capsys, self.ARGS)
        _, json_out = run_cli(capsys, self.ARGS + ["--format", "json"])
        payload = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
        assert len(csv_rows) == len(payload["rows"])
        for crow, jrow in zip(csv_rows, payload["rows"]):
            for c, j in zip(crow, jrow):
                assert float(c) == j

    @pytest.mark.parametrize("name", sorted(WORKLOAD_ARGV))
    def test_workload_matches_benchmark_reference(self, capsys, name):
        # pins each benchmark workload's default-seed table to the recorded bytes
        code, out = run_cli(capsys, WORKLOAD_ARGV[name])
        assert code == 0
        assert out == (REFERENCE / f"{name}.csv").read_text()

    @pytest.mark.parametrize("command", sorted(COMMAND_PINS))
    def test_command_matches_pinned_output(self, capsys, command):
        assert run_cli(capsys, command.split()) == (0, COMMAND_PINS[command])

    @pytest.mark.parametrize("command", sorted(set(COMMAND_PINS) - {"rho0"}))
    def test_command_pin_through_output_file(self, capsys, tmp_path, command):
        # rho0 prints one line and takes no --output
        path = tmp_path / "table.csv"
        assert run_cli(capsys, command.split() + ["--output", str(path)]) == (0, "")
        assert path.read_bytes() == COMMAND_PINS[command].encode()

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out = run_cli(capsys, ["zeros", "--x", "1", "--output", str(path)])
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("mu,phi,phi_sq,gamma\n")
        assert "\r" not in text  # LF endings


class RecordingSink:
    """A text sink that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class CountingSink:
    """A text sink that keeps only the number of lines written."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def grid_argv(command, x_range, rhos):
    x_min, x_max, steps = x_range
    argv = [command, f"--x-min={x_min!r}", f"--x-max={x_max!r}", "--steps", str(steps)]
    for rho in rhos:
        argv += ["--rho", repr(rho)]
    return argv


def synthetic_grid(steps, count):
    """steps columns of count 17-digit values, as casimir.vartheta_grid returns."""
    return [[math.sin(1.0 + i + 1e-3 * j) for j in range(count)] for i in range(steps)]


class TestStreamedOutput:
    """The table commands write their rows in blocks, with the same bytes."""

    ROWS = [[1, "a", None, 1e-300], [-2.5, "", 1.2e300, 0.1]]

    def test_output_stage_memory_does_not_grow_with_rows(self, monkeypatch):
        # 12 x by 2000 rho: 24,000 rows, 1.3 MB of CSV.  The output stage's
        # tracemalloc peak above the finished grid measured 62 KB, one block
        # of rows; it was 7.4 MB when the rows and the whole text were built
        # before the first write
        rhos = [1.0 + 0.005 * j for j in range(2000)]
        grid = synthetic_grid(12, len(rhos))
        start = {}

        def vartheta_grid(xs, rhos):
            start["current"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return grid

        monkeypatch.setattr(casimir, "vartheta_grid", vartheta_grid)
        sink = CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(grid_argv("vartheta-table", (-3.0, 4.0, 12), rhos))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.lines == 24_001
        assert peak - start["current"] < 200_000

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_writes_are_blocks_of_rows(self, format):
        rows = self.ROWS * 12_000
        columns, meta = ["a", "b", "c", "d"], {"tool": "t", "params": {"rho": [1.0, 2.5]}}
        sink = RecordingSink()
        emit_table(columns, (row for row in rows), format, sink, meta)
        if format == "csv":
            expected = "\n".join([",".join(columns)] + [",".join(render_value(v) for v in row)
                                                        for row in rows]) + "\n"
        else:
            expected = json.dumps({"columns": columns, "rows": rows, "meta": meta},
                                  indent=2) + "\n"
        assert "".join(sink.writes) == expected
        assert emitted(columns, rows, format, meta) == expected
        # a block can hold the tail of the row before it; JSON's blocks also
        # close the columns' list, the rows' list and the meta's list
        assert max(w.count("]" if format == "json" else "\n") for w in sink.writes) \
            <= CHUNK_ROWS + 2
        assert len(sink.writes) <= len(rows) // CHUNK_ROWS + 2

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        grid_argv("vartheta-table", (-3.0, 4.0, 3), [1.0 + 0.01 * j for j in range(200)]),
        grid_argv("theta-table", (-1.0, 1.0, 3), [0.6, 1.0, 2.0]),
    ], ids=["vartheta-table", "theta-table"])
    def test_stdout_equals_output_file(self, capsys, monkeypatch, tmp_path, argv, format):
        # 600 force rows cross the block boundaries; the potential has x = 0 rows
        if argv[0] == "vartheta-table":
            grid = synthetic_grid(3, len(argv[6::2]))
            monkeypatch.setattr(casimir, "vartheta_grid", lambda xs, rhos: grid)
        argv = argv + ["--format", format]
        code, out = run_cli(capsys, argv)
        assert code == 0
        if argv[0] == "theta-table":
            assert out.count("divergent") == 3
        path = tmp_path / f"table.{format}"
        assert run_cli(capsys, argv + ["--output", str(path)]) == (0, "")
        assert path.read_bytes() == out.encode()

    def test_grid_failing_at_its_last_x_writes_nothing(self, capsys, monkeypatch):
        # every point is computed before the first write, even with one row a
        # block: x = -400 comes last in each rho's block of rows
        monkeypatch.setattr(tables, "CHUNK_ROWS", 1)
        argv = grid_argv("vartheta-table", (1.0, -400.0, 3), [1.0, 2.0, 3.0])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: non-finite integrand value")


class TestExitCodes:
    def test_invalid_arguments(self, capsys):
        assert cli.main(["zeros", "--bogus"]) == 1
        capsys.readouterr()

    def test_missing_command(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_invalid_value_maps_to_one(self, capsys):
        # rho below the series validity window is an argument error
        assert cli.main(["sigma", "--x", "0", "--rho", "0.3"]) == 1
        capsys.readouterr()

    def test_numerical_failure_maps_to_two(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(cli.casimir, "find_rho0", boom)
        assert cli.main(["rho0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, expected", [
        (["zeros", "--x", "nan"], 1),
        (["weights", "--x", "-inf"], 1),
        (["sigma", "--x", "0", "--rho", "inf"], 1),
        (["vartheta-table", "--x-min", "nan", "--x-max", "1", "--steps", "3", "--rho", "1"], 1),
        (["vartheta-table", "--x-min", "-1", "--x-max", "inf", "--steps", "3", "--rho", "1"], 1),
        (["vartheta-table", "--x-min", "-1", "--x-max", "1", "--steps", "3", "--rho", "inf"], 1),
        (["theta-table", "--x-min", "1", "--x-max", "2", "--steps", "2", "--rho", "nan"], 1),
        (["critical", "--rho", "inf"], 1),
        # sigma0 = exp(pi/(48 rho)) overflows: a numerical failure
        (["critical", "--rho", "1e-300"], 2),
        (["effspin-check", "--x", "nan", "--rho", "1"], 1),
        # exp overflow in the weight prefactor: a numerical failure
        (["vartheta-table", "--x-min", "-360", "--x-max", "-360", "--steps", "1",
          "--rho", "1"], 2),
        (["weights", "--x", "-360", "--count", "4"], 2),
        # x^2 overflows in the zeros
        (["zeros", "--x", "1e300", "--count", "2"], 2),
        # rho^-2 overflows the exchanged value, or rho * rho is 0.0 itself
        (["theta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-155"], 2),
        (["vartheta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-155"], 2),
        (["vartheta-table", "--x-min", "0", "--x-max", "0", "--steps", "1", "--rho", "1e-155"], 2),
        (["theta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-200"], 2),
        (["vartheta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-200"], 2),
        # x rho = 1e-301 is below I1's floor, but rho * rho == 0.0 is checked first
        (["theta-table", "--x-min", "1e-101", "--x-max", "1e-101", "--steps", "1",
          "--rho", "1e-200"], 2),
        # counts, orders and aspect ratios must be positive, even where no
        # library call would check them (the x = 0 row of the potential)
        (["weights", "--x", "1", "--count", "0"], 1),
        (["weights", "--x", "1", "--count", "-3"], 1),
        (["theta-table", "--x-min", "0", "--x-max", "0", "--steps", "1", "--rho", "-1"], 1),
        (["sigma", "--x", "1", "--rho", "1", "--order", "0"], 1),
        (["sigma", "--x", "1", "--rho", "1", "--order", "25"], 1),
        (["sigma", "--x", "1", "--rho", "1", "--modes", "257"], 1),
        (["zeros", "--x", "1", "--count", "10001"], 1),
        (["weights", "--x", "1", "--count", "10001"], 1),
        # the grid and critical commands take no --order: an unrecognized argument
        (["theta-table", "--x-min", "0", "--x-max", "0", "--steps", "1", "--rho", "1",
          "--order", "0"], 1),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_exit_code_without_traceback(self, capsys, argv, expected):
        assert cli.main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_sigma_order_above_the_maximum_is_named(self, capsys, monkeypatch):
        def unreached(*args):
            raise AssertionError("no series is evaluated")

        monkeypatch.setattr(cli.sigma, "sigma_series", unreached)
        assert cli.main(["sigma", "--x", "1", "--rho", "1", "--order", "1000"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: sigma --order is at most 24, got 1000\n")

    def test_sigma_modes_above_the_maximum_is_named(self, capsys, monkeypatch):
        def unreached(*args):
            raise AssertionError("no zero or weight is computed")

        monkeypatch.setattr(cli.sigma, "sigma_series", unreached)
        monkeypatch.setattr(cli.sigma, "sigma_det", unreached)
        assert cli.main(["sigma", "--x", "1", "--rho", "1", "--modes", "100000"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: sigma --modes is at most 256, got 100000\n")
        monkeypatch.undo()
        assert cli.main(["sigma", "--x", "1", "--rho", "1", "--modes", "256"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["zeros", "weights"])
    def test_count_above_the_maximum_is_named(self, capsys, monkeypatch, command):
        def unreached(*args):
            raise AssertionError("no zero or weight is computed")

        monkeypatch.setattr(cli.roots, "find_zeros", unreached)
        monkeypatch.setattr(cli.weights, "weight", unreached)
        assert cli.main([command, "--x", "1", "--count", "100000000"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {command} --count is at most 10000, got 100000000\n")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_MAX_COUNT", 3)
        assert cli.main([command, "--x", "1", "--count", "3"]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main([command, "--x", "1", "--count", "4"]) == 1
        assert capsys.readouterr().err == f"error: {command} --count is at most 3, got 4\n"

    @pytest.mark.parametrize("command", ["theta-table", "vartheta-table"])
    def test_grid_rows_above_the_maximum_are_named(self, capsys, monkeypatch, command):
        def unreached(*args):
            raise AssertionError("no grid point is evaluated")

        monkeypatch.setattr(cli.casimir, "theta_column", unreached)
        monkeypatch.setattr(cli.casimir, "vartheta_grid", unreached)
        argv = [command, "--x-min", "0", "--x-max", "1", "--steps", "500001",
                "--rho", "1", "--rho", "2"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: --steps times the --rho count is at most 1000000, got 1000002\n")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_MAX_ROWS", 6)
        assert cli.main([command, "--x-min", "1", "--x-max", "2", "--steps", "3",
                         "--rho", "1", "--rho", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_x_grid_keeps_its_formula_where_the_width_is_finite(self):
        for lo, hi, steps in ((-3.0, 4.0, 12), (-15.0, 15.0, 13), (0.1, -2.7, 9),
                              (-1e308, 7e307, 2)):
            grid = cli._x_grid({"x_min": lo, "x_max": hi, "steps": steps, "rho": [1.0]})
            assert grid == [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]

    @pytest.mark.parametrize("lo, hi, steps, expected", [
        (1e308, -1e308, 3, [1e308, 0.0, -1e308]),
        # the width is finite, but twice the width is not
        (-1e308, 0.0, 3, [-1e308, -5e307, 0.0]),
        (-1.7e308, 1.7e308, 5, [-1.7e308, -8.499999999999999e307, 0.0,
                                8.499999999999999e307, 1.7e308]),
    ])
    def test_x_grid_whose_width_overflows(self, lo, hi, steps, expected):
        grid = cli._x_grid({"x_min": lo, "x_max": hi, "steps": steps, "rho": [1.0]})
        assert grid == expected

    def test_overflowing_width_fails_at_the_given_end(self, capsys):
        argv = ["vartheta-table", "--x-min=1e308", "--x-max=-1e308", "--steps", "3", "--rho", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "numerical failure: zero mu=1 at x=1e+308: x^2 overflows the doubles\n")

    @pytest.mark.parametrize("argv", [
        ["theta-table", "--x-min", "1e-101", "--x-max", "1e-101", "--steps", "1",
         "--rho", "1e-200"],
        ["theta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-200"],
        ["vartheta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-200"],
    ], ids=lambda v: "_".join(v))
    def test_zero_rho_squared_fails_before_any_evaluation(self, capsys, monkeypatch, argv):
        def evaluated(*args):
            raise AssertionError("the exchanged value was evaluated")

        for name in ("theta_total", "theta_sc", "x_dtheta_sc"):
            monkeypatch.setattr(casimir, name, evaluated)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rho^-2 times the exchanged value at rho = 1e-200 overflows" in captured.err

    @pytest.mark.parametrize("rhos, err", [
        (["2", "1e-200"], "non-finite integrand value in panel [0.0, 400.10660973505827]"),
        (["1e-200", "2"],
         "rho^-2 times the exchanged value at rho = 1e-200 overflows the doubles"),
    ], ids=["weights_first", "rho_squared_first"])
    def test_force_grid_raises_the_first_failing_point(self, capsys, rhos, err):
        # the grid checks rho^2 before it evaluates anything, and where it
        # fails it raises what the first point, in table-building order, raises
        argv = ["vartheta-table", "--x-min=-400", "--x-max=-400", "--steps", "1"]
        for rho in rhos:
            argv += ["--rho", rho]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {err}\n"

    @pytest.mark.parametrize("rhos, err", [
        (["2", "1e-200"], "zero mu=1 at x=1e+300: x^2 overflows the doubles"),
        (["1e-200", "2"],
         "rho^-2 times the exchanged value at rho = 1e-200 overflows the doubles"),
    ], ids=["zeros_first", "rho_squared_first"])
    def test_potential_column_raises_the_first_failing_point(self, capsys, rhos, err):
        # theta_oo(x) first, then each rho in order: its region is decided and
        # its value evaluated before the next rho is looked at
        argv = ["theta-table", "--x-min=1e300", "--x-max=1e300", "--steps", "1"]
        for rho in rhos:
            argv += ["--rho", rho]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"numerical failure: {err}\n")

    @pytest.mark.parametrize("x, rho", [("1.5e-300", "0.5"), ("1e-290", "1e-11"),
                                        ("1e-150", "1e-155")])
    def test_potential_floor_names_the_given_arguments(self, capsys, x, rho):
        # below rho = 1 the potential is evaluated at x * rho, under I1's
        # 1e-300 floor here; the error names the x and rho that were given
        argv = ["theta-table", "--x-min", x, "--x-max", x, "--steps", "1", "--rho", rho]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: |x rho| < 1e-300 is beyond double precision here, "
                                f"got x = {x}, rho = {rho}\n")

    @pytest.mark.parametrize("argv", [
        ["weights", "--x=-380", "--count", "16"],
        ["vartheta-table", "--x-min=-400", "--x-max=-400", "--steps", "1", "--rho", "1"],
    ], ids=["weights", "vartheta-table"])
    def test_weight_underflow_prints_one_line(self, capsys, argv):
        # the non-finite weight integrand is reported once, without numpy
        # warnings quoting source lines ahead of it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite integrand value in panel")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["weights", "--x=-370", "--count", "16"],
        ["vartheta-table", "--x-min=-370", "--x-max=-370", "--steps", "1", "--rho", "1"],
    ], ids=["weights", "vartheta-table"])
    def test_subnormal_gamma_1_fails_at_once(self, capsys, argv):
        # gamma_1^2 = 2.3e-316 at x = -370: the weights raise before any
        # quadrature instead of running to the panel budget for minutes
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err == ("numerical failure: gamma_1^2 = 2.294e-316 is subnormal at x = -370.0; "
                       "the weight integrals cannot converge\n")

    @pytest.mark.parametrize("x, err", [
        ("-360", "numerical failure: math range error\n"),
        ("-400", "numerical failure: non-finite integrand value in panel "
                 "[0.0, 400.10660973505827]\n"),
    ], ids=["-360", "-400"])
    def test_force_failure_below_minus_356(self, capsys, x, err):
        # from x ~ -356.5 on the force fails: its series needs the weights at
        # x, which the linear domain cannot hold there
        argv = ["vartheta-table", f"--x-min={x}", f"--x-max={x}", "--steps", "1", "--rho", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("x", ["-360", "-400", "-1000", "-1e5"])
    def test_potential_row_below_minus_356(self, capsys, x):
        # the potential is theta_oo(x) - log(2)/rho there, from no weight
        argv = ["theta-table", f"--x-min={x}", f"--x-max={x}", "--steps", "1",
                "--rho", "0.3", "--rho", "1", "--rho", "7"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == [
            "-2.3104906018664839", "-0.69314718055994529", "-0.099021025794277892"]

    def test_potential_row_at_minus_347(self, capsys):
        # I2 is the ordered-phase constant there, and no weight overflows
        argv = ["theta-table", "--x-min=-347", "--x-max=-347", "--steps", "1", "--rho", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (
            "x,rho,theta_total,note\n-347,1,-0.69314718055994529,\n", "")

    def test_large_x_row(self, capsys):
        # the zeros are found where the dispersion function is steep
        argv = ["vartheta-table", "--x-min", "1e5", "--x-max", "1e5", "--steps", "1",
                "--rho", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == "100000,1,0"

    def test_weight_overflow_prints_one_line(self, capsys):
        # x^2 overflows in the first zero at x = 1e300; the failure is
        # reported once, with no numpy overflow warning ahead of it
        argv = ["vartheta-table", "--x-min", "1e300", "--x-max", "1e300", "--steps", "1",
                "--rho", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err == "numerical failure: zero mu=1 at x=1e+300: x^2 overflows the doubles\n"

    @pytest.mark.parametrize("command, x, err", [
        ("theta-table", "-1.7e308", "non-finite integrand value in panel [0.0, 0.881373587019543]"),
        ("vartheta-table", "1.7e308", "zero mu=1 at x=1.7e+308: x^2 overflows the doubles"),
    ], ids=["theta-table", "vartheta-table"])
    def test_strip_overflow_prints_one_line(self, capsys, command, x, err):
        # g = hypot(w, x) overflows in the strip integrand next to the largest
        # double; only the failure is reported, with no numpy warning ahead of it
        argv = [command, f"--x-min={x}", f"--x-max={x}", "--steps", "1", "--rho", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert caught == []
        assert capsys.readouterr() == ("", f"numerical failure: {err}\n")

    def test_division_by_zero_prints_one_line(self, capsys):
        argv = ["vartheta-table", "--x-min=-1000", "--x-max=-1000", "--steps", "1", "--rho", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: float division by zero\n"

    def test_tiny_nonzero_x_row(self, capsys):
        argv = ["vartheta-table", "--x-min", "1e-20", "--x-max", "1e-20", "--steps", "1",
                "--rho", "1"]
        assert cli.main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1.0 / 16.0, abs=1e-12)


MODULE_ENTRY = ["-m", "casimir_rect.cli"]


def script_call():
    """The console script wrapper's statement: call pyproject's target, exit with its result."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"]["casimir-rect"].split(":")
    return f"from {module} import {func}; sys.exit({func}())"


def python_env():
    """The environment of a fresh interpreter that imports this casimir_rect."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_python(args):
    """A fresh interpreter on args, importing this casimir_rect; stdout and stderr as bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                          env=python_env())


class TestProcessEntry:
    """The process entry freezes the import-time heap and ends quietly on a closed pipe;
    cli.main changes no GC state."""

    SMALL = ["zeros", "--x", "1", "--count", "2"]

    @pytest.mark.parametrize("fmt, loaded", [("csv", False), ("json", True)])
    def test_json_is_imported_for_json_tables_only(self, fmt, loaded):
        argv = ["vartheta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1",
                "--format", fmt, "--output", os.devnull]
        code = ("import sys\nfrom casimir_rect import cli\n"
                f"print(cli.main({argv!r}), 'json' in sys.modules)")
        proc = run_python(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"0 {loaded}\n".encode(), b"")

    def test_import_loads_no_dataclasses(self):
        # the record types are NamedTuples, which build no code at import
        proc = run_python(["-c", "import sys, casimir_rect.cli\n"
                                 "print('dataclasses' in sys.modules)"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert cli.main(self.SMALL) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_entry_freezes_the_import_heap(self, entry):
        if entry == "module":  # as python -m runs it
            start = "import runpy; runpy.run_module('casimir_rect.cli', run_name='__main__')"
        else:
            start = script_call()
        code = ("import gc, sys\n"
                f"sys.argv[1:] = {self.SMALL!r}\n"
                f"try:\n    {start}\n"
                "except SystemExit as exc:\n"
                "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n")
        proc = run_python(["-c", code])
        assert proc.stdout.startswith(b"mu,phi,phi_sq,gamma\n")
        assert (proc.returncode, proc.stderr) == (0, b"0 True\n")

    @staticmethod
    def entry_env(buffered):
        env = python_env()
        env.pop("PYTHONUNBUFFERED", None)
        return env if buffered else dict(env, PYTHONUNBUFFERED="1")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_quietly(self, buffered):
        # 6000 rows, about 270 KB: more than a pipe holds, so the writes meet
        # the closed pipe before the table ends
        argv = grid_argv("vartheta-table", (-3.0, 4.0, 12), [1.0 + 0.01 * j for j in range(500)])
        proc = subprocess.Popen([sys.executable, *MODULE_ENTRY, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.entry_env(buffered))
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()  # a no-op once it has exited
        assert (first, err, proc.returncode) == (b"x,rho,vartheta\n", b"", 1)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["constants", "rho0"])
    def test_pipe_closed_before_the_first_write(self, buffered, command):
        # a buffered small table meets the closed pipe only when it is flushed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *MODULE_ENTRY, command], stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=120,
                                  env=self.entry_env(buffered))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("name", sorted(WORKLOAD_ARGV))
    def test_workload_through_module_entry(self, name):
        proc = run_python(MODULE_ENTRY + WORKLOAD_ARGV[name])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (REFERENCE / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("argv, expected", [
        (["zeros", "--x", "nan"], 1),
        (["vartheta-table", "--x-min", "1", "--x-max", "1", "--steps", "1", "--rho", "1e-155"], 2),
    ], ids=["nan", "rho_1e-155"])
    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_exit_codes_through_process_entries(self, capsys, entry, argv, expected):
        assert cli.main(argv) == expected
        in_process = capsys.readouterr()
        entry_args = MODULE_ENTRY if entry == "module" else ["-c", "import sys; " + script_call()]
        proc = run_python(entry_args + argv)
        assert proc.returncode == expected
        assert (proc.stdout.decode(), proc.stderr.decode()) == in_process
