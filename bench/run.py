"""End-to-end and per-layer benchmark of the casimir-rect table CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times fresh `python -m casimir_rect.cli` processes, one at a time,
for S seconds and at least MIN_RUNS tables (closed loop, one client), and
reports wall time, table rows per second, peak resident memory and the
interpreter-plus-import set-up time.  --trace 1 runs the same arguments in
process, plain and with every layer wrapped in spans in turn (see
inprocess.py and spans.py), then runs the cold layer probes (see
probes.py), and reports per-layer counts, times and cache statistics.
Children get the environment without CASIMIR_RECT_THREADS, so the CLI runs
at its default of one thread.

Every table is checked (see check.py).  At seeds other than the default, the
default seed's table is also computed once per run, untimed, and compared
with the recorded reference, so every run checks the values.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the timing details.  The exit
code is 2, with no result printed, when the checkout has no casimir_rect
sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import probes
from check import check_table, load_reference
from spans import CACHED, QUAD_ENTRIES, quad_integrals, summarize
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, invocation

SETUP_REPEATS = 11
MIN_RUNS = 11  # so the detail line always has a tail percentile with 10 runs above it
DEADLINE_S = 170.0  # children still running then are killed, so a run ends within 180 s
PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


@dataclass
class Checkout:
    """Where run files go, the children's environment, and when to stop them."""

    out: Path
    env: dict
    deadline: float

    @classmethod
    def at(cls, root: Path) -> "Checkout":
        src = root / "src"
        if not (src / "casimir_rect" / "cli.py").is_file():
            raise FileNotFoundError(f"no casimir_rect sources under {src}")
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "CASIMIR_RECT_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        return cls(out=out, env=env, deadline=time.perf_counter() + DEADLINE_S)


@dataclass
class Run:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Attempted and failed program runs, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def plus(self, other: "Tally") -> "Tally":
        return Tally(self.attempted + other.attempted, self.failed + other.failed,
                     (self.problems + other.problems)[:PROBLEMS_SHOWN])

    def record(self, problem: str | None, what: str) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < PROBLEMS_SHOWN:
            self.problems.append(f"{what}: {problem}")
        return False


def spawn(checkout: Checkout, args: list[str]) -> Run:
    """Run one child to completion; wall time from spawn to exit, peak RSS."""
    out_path, err_path = checkout.out / "stdout.txt", checkout.out / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=checkout.env)
        timer = threading.Timer(max(0.0, checkout.deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(returncode=proc.returncode, wall_s=wall,
               maxrss_mb=usage.ru_maxrss / 1024.0,
               stdout=out_path.read_text(), stderr=err_path.read_text())


def cli_args(inv: Invocation) -> list[str]:
    return ["-m", "casimir_rect.cli", *inv.argv]


def _why(run: Run, problem: str | None) -> str | None:
    if problem is not None and run.returncode != 0 and run.stderr.strip():
        problem += f" ({run.stderr.strip().splitlines()[-1]})"
    return problem


def measure_setup(checkout: Checkout, tally: Tally) -> list[float]:
    """Interpreter start plus `import casimir_rect.cli`, after one warm-up."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        run = spawn(checkout, ["-c", "import casimir_rect.cli"])
        problem = None if run.returncode == 0 else f"exit code {run.returncode}"
        tally.record(_why(run, problem), "setup")
        times.append(run.wall_s)
    return times[1:]


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 runs above it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        summary.update(p25=q1, p75=q3)
    if n >= 11:
        summary["tail"] = {"percentile": 100.0 * (n - 10) / n,
                           "value": ordered[n - 11], "runs_above": 10}
    return summary


def timed(checkout: Checkout, name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    workload = WORKLOADS[name]
    inv = invocation(workload, seed)
    reference = load_reference(name)
    setup_tally, tally = Tally(), Tally()  # fail_frac counts table runs only
    setup = measure_setup(checkout, setup_tally)
    if seed != DEFAULT_SEED:
        canonical = invocation(workload, DEFAULT_SEED)
        run = spawn(checkout, cli_args(canonical))
        tally.record(_why(run, check_table(canonical, run.returncode, run.stdout, reference)),
                     "reference run")
    runs, passed = [], []
    start = time.perf_counter()
    # stop when the next run would likely end past the window, so the time a
    # run takes stays close to --seconds
    while (len(runs) < MIN_RUNS
           or time.perf_counter() - start + 0.5 * runs[-1].wall_s < seconds):
        run = spawn(checkout, cli_args(inv))
        runs.append(run)
        problem = check_table(inv, run.returncode, run.stdout,
                              reference if seed == DEFAULT_SEED else None)
        if tally.record(_why(run, problem), f"run {len(runs)}"):
            passed.append(run)
    sample = passed or runs
    walls = [r.wall_s for r in sample]
    metrics = {
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(inv.rows / w for w in walls),
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in sample),
        "setup_s": statistics.median(setup),
    }
    detail = {"workload": name, "seed": seed, "rows": inv.rows,
              "wall_s": quartiles(walls), "setup_s": quartiles(setup),
              "fail_frac": tally.failed / tally.attempted,
              "setup_failed": setup_tally.failed,
              "problems": setup_tally.problems + tally.problems}
    return tally.plus(setup_tally), metrics, detail


def run_inprocess(checkout: Checkout, inv: Invocation) -> tuple[Run, dict | None]:
    report_path = checkout.out / "traced.json"
    table_path = checkout.out / "table.csv"
    report_path.unlink(missing_ok=True)
    run = spawn(checkout, [str(Path(__file__).resolve().parent / "inprocess.py"),
                           str(report_path), str(table_path), *inv.argv])
    if run.returncode != 0:
        return run, None
    report = json.loads(report_path.read_text())
    run.returncode = report["exit"]
    run.stdout = table_path.read_text()
    return run, report


def layer_metrics(report: dict, probe_s: dict) -> dict:
    """Per-layer values from the in-process report and the cold probes."""
    spans = report["spans"]
    by_name = summarize(spans)

    def get(name: str, what: str) -> float:
        return by_name.get(name, {}).get(what, 0)

    quad_self = sum(get(f"quad.{attr}", "self_s") for attr in QUAD_ENTRIES)
    metrics = {
        "weights.weight_v.calls": get("weights.weight_v", "calls"),
        "weights.weight_v.s": get("weights.weight_v", "s"),
        "weights.weight_v.self_s": get("weights.weight_v", "self_s"),
        "weights.distinct_x": report["distinct"].get("weights.weight_v", 0),
        "quad.integrals": quad_integrals(spans),
        "quad.integrand_calls": get("quad.integrand", "calls"),
        "quad.nodes": report["counts"].get("quad.nodes", 0),
        "quad.self_s": quad_self,
        "quad.integrand.self_s": get("quad.integrand", "self_s"),
        "strip.theta_oo.calls": get("strip.theta_oo", "calls"),
        "strip.theta_oo.s": get("strip.theta_oo", "s"),
        "strip.vartheta_oo.s": get("strip.vartheta_oo", "s"),
        "sigma.amplitude.calls": get("sigma.amplitude", "calls"),
        "sigma.amplitude.self_s": get("sigma.amplitude", "self_s"),
        "sigma.Psi.calls": get("sigma.Psi", "calls"),
        "sigma.psi_strip.calls": get("sigma.psi_strip", "calls"),
        "sigma.psi_strip.self_s": get("sigma.psi_strip", "self_s"),
        "casimir.theta_sc.calls": get("casimir.theta_sc", "calls"),
        "casimir.integral_I1.s": get("casimir.integral_I1", "s"),
        "casimir.integral_I2.s": get("casimir.integral_I2", "s"),
        "casimir.x_dtheta_sc.s": get("casimir.x_dtheta_sc", "s"),
        "roots.find_zero.calls": get("roots.find_zero", "calls"),
        "roots.find_zero.s": get("roots.find_zero", "s"),
        "tables.emit_s": get("tables.emit_table", "s"),
        "trace.wall_s": statistics.median(report["traced_s"]),
        "trace.overhead_s": statistics.median(
            t - p for t, p in zip(report["traced_s"], report["plain_s"])),
    }
    for name in CACHED:
        info = report["caches"][name]
        lookups = info["hits"] + info["misses"]
        metrics[f"{name}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        metrics[f"{name}.size"] = info["currsize"]
        if CACHED[name]:  # wrapped at its call sites
            metrics[f"{name}.reads"] = report["counts"].get(name, 0)
    for name in probes.PROBES:
        metrics[f"probe.{name}_s"] = probe_s[name]
    return metrics


LAYER_UNITS = {"calls": "count", "distinct_x": "count", "integrals": "count",
               "integrand_calls": "count", "nodes": "count", "reads": "count",
               "hit_ratio": "ratio", "size": "entries"}


def layer_unit(metric: str) -> str:
    return LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "s")


def traced(checkout: Checkout, name: str, seed: int) -> tuple[Tally, dict, dict]:
    inv = invocation(WORKLOADS[name], seed)
    reference = load_reference(name) if seed == DEFAULT_SEED else None
    tally = Tally()
    run, report = run_inprocess(checkout, inv)
    problem = check_table(inv, run.returncode, run.stdout, reference)
    if problem is None and not report["identical"]:
        problem = "the traced and untraced tables differ"
    tally.record(_why(run, problem), "in-process runs")
    probe_s = {}
    for probe in probes.PROBES:
        result = spawn(checkout, [str(Path(probes.__file__).resolve()), probe])
        problem = f"exit code {result.returncode}"
        if result.returncode == 0:
            try:
                out = json.loads(result.stdout)
                problem = None if math.isfinite(out["value"]) else f"value {out['value']}"
                probe_s[probe] = out["s"]
            except (ValueError, TypeError, KeyError) as exc:
                problem = f"unreadable probe output: {exc}"
        tally.record(_why(result, problem), f"probe {probe}")
    if report is None or len(probe_s) < len(probes.PROBES):
        return tally, {}, {"workload": name, "seed": seed, "problems": tally.problems}
    metrics = layer_metrics(report, probe_s)
    detail = {"workload": name, "seed": seed, "rows": inv.rows,
              "untraced_cli_s": report["plain_s"], "traced_cli_s": report["traced_s"],
              "spans": len(report["spans"]),
              "spans_file": "bench/out/traced.json", "problems": tally.problems}
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout = Checkout.at(Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a casimir-rect checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        tally, values, detail = traced(checkout, args.workload, args.seed)
        units = {name: layer_unit(name) for name in values}
    else:
        tally, values, detail = timed(checkout, args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
