"""CLI tests: formats, round-trip precision, determinism, exit codes."""

import json
import math
import warnings
from pathlib import Path

import pytest

from casimir_rect import casimir, cli, strip, weights
from casimir_rect.quad import QuadratureError
from casimir_rect.tables import FunctionTable, render_csv, render_json, render_value

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
# the benchmark workloads at their default seed, as bench/workloads.py builds them:
# name -> (command, x_min, x_max, steps, aspect ratios)
WORKLOADS = {
    "rho_scan": ("vartheta-table", -12.0, 12.0, 12,
                 tuple(1.0 + 4.0 * i / 159 for i in range(160))),
    "slab_force": ("vartheta-table", -15.0, 15.0, 13, (0.55, 0.725, 0.9)),
    "potential_grid": ("theta-table", -2.0, 5.0, 2, (1.0, 1.5, 2.0, 3.0)),
}


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


class TestTables:
    def test_empty_table_renders_header_only(self):
        t = FunctionTable(["a", "b"])
        assert render_csv(t) == "a,b\n"

    def test_one_by_one(self):
        t = FunctionTable(["v"])
        t.add_row(1.5)
        assert render_csv(t) == "v\n1.5\n"

    def test_round_trip_rendering(self):
        values = [math.pi, 1.0 / 3.0, 6.39303337215, -1e-300, 2.0**-52, 0.1]
        for v in values:
            assert float(render_value(v)) == v

    def test_row_length_guard(self):
        t = FunctionTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1.0)

    def test_json_structure(self):
        t = FunctionTable(["a"])
        t.add_row(2.0)
        payload = json.loads(render_json(t, {"k": 1}))
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

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_matches_benchmark_reference(self, capsys, name):
        # pins each benchmark workload's default-seed table to the recorded bytes
        command, x_min, x_max, steps, rhos = WORKLOADS[name]
        argv = [command, "--x-min", repr(x_min), "--x-max", repr(x_max),
                "--steps", str(steps)]
        for rho in rhos:
            argv += ["--rho", repr(rho)]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert out == (REFERENCE / f"{name}.csv").read_text()

    @pytest.mark.parametrize("command", sorted(COMMAND_PINS))
    def test_command_matches_pinned_output(self, capsys, command):
        assert run_cli(capsys, command.split()) == (0, COMMAND_PINS[command])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out = run_cli(capsys, ["zeros", "--x", "1", "--output", str(path)])
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("mu,phi,phi_sq,gamma\n")
        assert "\r" not in text  # LF endings


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
        # counts, orders and aspect ratios must be positive, even where no
        # library call would check them (the x = 0 row of the potential)
        (["weights", "--x", "1", "--count", "0"], 1),
        (["weights", "--x", "1", "--count", "-3"], 1),
        (["theta-table", "--x-min", "0", "--x-max", "0", "--steps", "1", "--rho", "-1"], 1),
        (["sigma", "--x", "1", "--rho", "1", "--order", "0"], 1),
        # the grid and critical commands take no --order: an unrecognized argument
        (["theta-table", "--x-min", "0", "--x-max", "0", "--steps", "1", "--rho", "1",
          "--order", "0"], 1),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_exit_code_without_traceback(self, capsys, argv, expected):
        assert cli.main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("x, err", [
        ("-347", "numerical failure: math range error\n"),
        ("-360", "numerical failure: math range error\n"),
        ("-400", "numerical failure: non-finite integrand value in panel "
                 "[0.0, 400.10660973505827]\n"),
    ])
    def test_potential_failure_below_minus_346(self, capsys, x, err):
        # from x ~ -346.3 on the potential fails, in I2's far tail first; the
        # message is the one of the first failing x, as in node-by-node order
        argv = ["theta-table", f"--x-min={x}", f"--x-max={x}", "--steps", "1", "--rho", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", err)

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

    def test_division_by_zero_prints_one_line(self, capsys):
        argv = ["theta-table", "--x-min=-1000", "--x-max=-1000", "--steps", "1", "--rho", "1"]
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
