"""Tests of the benchmark itself: inputs, span arithmetic, checker, contract.

Run from the root of the repository: python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probes
import run
from check import ATOL, RTOL, check_table, load_reference, parse_table
from spans import CACHED, quad_integrals, self_times, summarize
from workloads import DEFAULT_SEED, MAX_SHIFT, WORKLOADS, invocation, x_grid

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert invocation(w, 7) == invocation(w, 7)
    assert invocation(w, 7).argv != invocation(w, 8).argv
    canonical = invocation(w, DEFAULT_SEED)
    assert canonical.xs == x_grid(w.x_min, w.x_max, w.steps)
    assert canonical.rhos == w.canonical_rho
    step = (w.x_max - w.x_min) / (w.steps - 1)
    for seed in range(1, 40):
        inv = invocation(w, seed)
        assert abs(inv.xs[0] - w.x_min) <= MAX_SHIFT * step + 1e-9
        assert len(inv.rhos) == len(w.canonical_rho)
        assert all(w.rho_range[0] <= r <= w.rho_range[1] for r in inv.rhos)
        if w.command == "theta-table":
            assert 0.0 not in inv.xs  # the potential diverges at x = 0


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: the children cover [1, 6]
        ["leaf", 2.0, 3.0, 1],
        ["b", 9.0, 12.0, 0],  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]
    by_name = summarize(spans)
    assert by_name["b"] == {"calls": 2, "s": 6.0, "self_s": 6.0}
    assert by_name["a"]["self_s"] == 2.0


def test_nested_spans_of_one_name_count_once():
    spans = [
        ["quad.integrate_semi_infinite", 0.0, 10.0, -1],
        ["quad.integrate_finite", 1.0, 9.0, 0],
        ["quad.integrand", 2.0, 8.0, 1],
        ["quad.integrate_finite", 3.0, 7.0, 2],  # an integral inside an integrand
        ["quad.integrate_finite", 5.0, 6.0, 3],
    ]
    by_name = summarize(spans)
    assert by_name["quad.integrate_finite"]["calls"] == 3
    assert by_name["quad.integrate_finite"]["s"] == 8.0
    assert quad_integrals(spans) == 2


def _reference_text(name):
    return (BENCH / "reference" / f"{name}.csv").read_text()


def test_checker_accepts_the_reference():
    inv = invocation(WORKLOADS["potential_grid"], DEFAULT_SEED)
    text = _reference_text("potential_grid")
    assert check_table(inv, 0, text, load_reference("potential_grid")) is None


def test_checker_flags_bad_runs():
    inv = invocation(WORKLOADS["potential_grid"], DEFAULT_SEED)
    text = _reference_text("potential_grid")
    ref = load_reference("potential_grid")
    lines = text.splitlines(keepends=True)
    x, rho, value, note = lines[5].rstrip("\n").split(",")
    perturbed = "".join(lines[:5] + [f"{x},{rho},{float(value) * (1 + 1e-6)!r},{note}\n"]
                        + lines[6:])
    assert "differs from reference" in check_table(inv, 0, perturbed, ref)
    assert check_table(inv, 2, text, ref) == "exit code 2"
    assert "rows" in check_table(inv, 0, "".join(lines[:-1]), ref)
    swapped = "".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:])
    assert "expected" in check_table(inv, 0, swapped, ref)
    blank = "".join(lines[:5] + [f"{x},{rho},,{note}\n"] + lines[6:])
    assert "non-finite" in check_table(inv, 0, blank, None)


def test_tolerance_catches_a_truncated_series():
    """Sigma truncated at order 3 instead of 8 fails; order 8 reproduces."""
    from casimir_rect import casimir

    rows = [r for r in load_reference("rho_scan") if r[1] == 1.0]
    assert len(rows) == WORKLOADS["rho_scan"].steps

    def close(got, want):
        return abs(got - want) <= RTOL * abs(want) + ATOL

    assert all(close(casimir.vartheta_total(x, rho), v) for x, rho, v in rows)
    assert not all(close(casimir.vartheta_total(x, rho, 3), v) for x, rho, v in rows)


def test_traced_run_matches_untraced_and_records_layers(tmp_path):
    argv = ["vartheta-table", "--x-min", "-1.5", "--x-max", "0.5", "--steps", "2",
            "--rho", "0.8", "--rho", "1.2"]
    env = {"PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(BENCH / "inprocess.py"), str(tmp_path / "report.json"),
                    str(tmp_path / "table.csv"), *argv], env=env, check=True, timeout=120)
    assert len(parse_table((tmp_path / "table.csv").read_text())) == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["exit"] == 0 and report["identical"]
    assert len(report["plain_s"]) == len(report["traced_s"]) > 0
    names = {s[0] for s in report["spans"]}
    assert {"weights.weight_v", "quad.integrate_finite", "quad.integrand", "strip.theta_oo",
            "strip.vartheta_oo", "sigma.psi_strip", "casimir.x_dtheta_sc",
            "roots.find_zero", "tables.emit_table"} <= names
    assert all(end >= start for _, start, end, _ in report["spans"])
    assert report["caches"]["weights.weight_cached"]["currsize"] > 0
    assert report["counts"]["weights.weight_cached"] > 0


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    report = {"spans": [], "counts": {}, "distinct": {}, "plain_s": [1.0], "traced_s": [1.0],
              "caches": {name: {"hits": 0, "misses": 0, "currsize": 0} for name in CACHED}}
    layer = run.layer_metrics(report, {name: 1.0 for name in probes.PROBES})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer}


def test_probe_prints_its_time_and_value():
    proc = subprocess.run([sys.executable, str(BENCH / "probes.py"), "zeros16"],
                          env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                          text=True, check=True, timeout=60)
    out = json.loads(proc.stdout)
    assert out["s"] > 0.0
    assert out["value"] > 0.0


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "bench").symlink_to(BENCH, target_is_directory=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rho_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_children_are_killed_at_the_deadline(tmp_path):
    checkout = run.Checkout(out=tmp_path, env={}, deadline=time.perf_counter() + 0.5)
    result = run.spawn(checkout, ["-c", "import time; time.sleep(30)"])
    assert result.returncode != 0
    assert result.wall_s < 10.0
