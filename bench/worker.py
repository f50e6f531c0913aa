"""The measured process: runs one workload's CLI operation back to back.

A fresh interpreter that does nothing but the measured operations, so its
peak RSS is theirs (plus the interpreter, numpy and refsig); it is read
after the first operation, a warm-up that is checked but not timed. An
operation calls ``refsig.cli.main(argv)`` in-process for each of its
steps. The loop is closed, with one client: the next operation starts when
the previous one returns. Timed operations run until ``seconds`` have
passed, at least one. The worker stays on the plan's core. Between
operations it collects garbage and times a calibration block
(``calib.py``), so each timed operation gets the mean host factor of the
blocks just before and just after it. With tracing, one more operation
then runs with every public refsig function wrapped.

Usage: python3 bench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import os
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib


def _run_op(steps: list[list[str]]) -> dict:
    """One operation: its CLI steps in order, stopping at the first failure."""
    import refsig.cli

    out = io.StringIO()
    rc, error, steps_s = 0, None, []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in steps:
                step_start = time.perf_counter()
                rc = refsig.cli.main(argv)
                steps_s.append(time.perf_counter() - step_start)
                if rc != 0:
                    break
    except Exception:  # an escaping exception fails the operation, not the run
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "steps_s": steps_s, "rc": rc, "error": error,
            "output": out.getvalue()[-4000:]}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    os.sched_setaffinity(0, {plan["cpu"]})
    sys.path.insert(0, plan["src"])
    import refsig.cli  # noqa: F401  (import before timing)

    def steps_for(index: int) -> list[list[str]]:
        return [[arg.replace("{op}", str(index)) for arg in argv] for argv in plan["steps"]]

    ops = [_run_op(steps_for(0))]
    # The high-water mark of a fresh process after one operation, so it
    # does not depend on how many operations fit in the run.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gc.collect()
    before = calib.host_factor()
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < plan["seconds"]:
        op = _run_op(steps_for(len(ops)))
        gc.collect()
        after = calib.host_factor()
        op["host_factor"] = (before + after) / 2
        before = after
        ops.append(op)
    result = {"ops": ops, "peak_rss_kb": peak_rss_kb}

    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.run = len(ops)
        tracer.install()
        try:
            traced = _run_op(steps_for(len(ops)))
        finally:
            tracer.uninstall()
        Path(plan["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["traced"] = traced
        result["work"] = {k: dict(v) for k, v in tracer.work.items()}

    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
