"""Run one casimir-rect CLI invocation in process, plain and traced in turn.

Usage: python bench/inprocess.py REPORT.json OUTPUT.csv CLI-ARGS...

Calls casimir_rect.cli.main once plain as a warm-up, then PAIRS times traced
and plain in turn, emptying every cache before each call, so each call does
the work of a fresh process and the pairs see the same machine speed.  The
last table goes to OUTPUT.csv.  REPORT.json receives the first nonzero exit
code (or 0), whether every table was identical, the seconds spent in
cli.main per call, and the spans, call counts, distinct weight abscissae and
cache statistics of the last traced call.  casimir_rect must be importable
(run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from spans import Tracer, clear_caches, installed

PAIRS = 3


def call(cli, argv: list[str], tracer: Tracer | None = None) -> dict:
    """One cli.main call with every cache emptied first, traced if a tracer is given.

    Returns the exit code, the seconds in cli.main, the table and, when
    traced, the memoized functions' cache statistics.
    """
    clear_caches()
    out = io.StringIO()
    with contextlib.ExitStack() as stack, contextlib.redirect_stdout(out):
        originals = stack.enter_context(installed(tracer)) if tracer else {}
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        caches = {name: fn.cache_info()._asdict() for name, fn in originals.items()}
    return {"exit": code, "s": elapsed, "table": out.getvalue(), "caches": caches}


def main(report_path: str, output_path: str, argv: list[str]) -> None:
    from casimir_rect import cli

    calls = [call(cli, argv)]
    plain_s, traced_s = [], []
    for _ in range(PAIRS):
        tracer = Tracer()
        traced = call(cli, argv, tracer)
        plain = call(cli, argv)
        calls += [traced, plain]
        traced_s.append(traced["s"])
        plain_s.append(plain["s"])
    with open(output_path, "w") as fh:
        fh.write(plain["table"])
    report = {
        "exit": next((c["exit"] for c in calls if c["exit"] != 0), 0),
        "identical": len({c["table"] for c in calls}) == 1,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "distinct": {name: len(keys) for name, keys in tracer.keys.items()},
        "caches": traced["caches"],
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
