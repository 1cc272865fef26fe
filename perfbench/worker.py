"""One workload run in a fresh interpreter, started by ``run.py``.

Prints one JSON object as its last line.  ``--setup-only`` stops after
set-up and reports ``setup_s`` alone; ``run.py`` starts several of those
to take a median.  Otherwise the worker times tasks with tracing off for
the whole budget (``--trace 0``), or for half of it and then traces tasks
for the other half (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median

# The traced run keeps every span in memory (about 300k per cli-tables
# task), so it stops after this many tasks.
MAX_TRACED_TASKS = 2


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []


def timed_loop(workload, inputs, budget, outcome, tracer=None):
    """Run and check tasks until the next one would overrun ``budget`` seconds.

    Each task runs pinned to one CPU, taking the CPUs in turn.  On a shared
    host each vCPU drifts in speed on its own, over tens of seconds, and an
    unpinned process tends to stay on one vCPU for a whole run; in turn,
    no single slow vCPU sets a run's median.  The CLI's pool threads
    inherit the pin.

    Returns the task durations and the last output that passed its check.
    """
    durations, last_good = [], None
    cpus = sorted(os.sched_getaffinity(0))
    loop_start = time.perf_counter()
    while True:
        task_id = outcome.attempted
        outcome.attempted += 1
        os.sched_setaffinity(0, {cpus[task_id % len(cpus)]})
        try:
            if tracer is None:
                start = time.perf_counter()
                output = workload.task(inputs)
                durations.append(time.perf_counter() - start)
            else:
                with tracer.task(task_id):
                    start = time.perf_counter()
                    output = workload.task(inputs)
                    durations.append(time.perf_counter() - start)
            workload.check(inputs, output)
            last_good = output
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.errors.append(f"task {task_id}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if not durations:
            break
        if tracer is not None and len(durations) >= MAX_TRACED_TASKS:
            break
        if time.perf_counter() - loop_start + durations[-1] > budget:
            break
    os.sched_setaffinity(0, cpus)
    return durations, last_good


def run_probes(workload, inputs, output) -> tuple[int, list[str]]:
    """Run the untimed probes; a failure reads "raised ..." or "wrong ..."."""
    from workloads import CheckFailed

    if workload.probes is None or output is None:
        return 0, []
    attempted, failed = 0, []
    for label, probe in workload.probes(inputs, output):
        attempted += 1
        try:
            probe()
        except Exception as exc:  # each probe is one counted operation
            how = "wrong" if isinstance(exc, CheckFailed) else "raised"
            failed.append(f"{how} {label}: {type(exc).__name__}: {exc}")
    return attempted, failed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def traced_run(workload, inputs, budget, outcome, sites, spans_path):
    import tracing

    tracer = tracing.Tracer(sites)
    tracer.install()
    try:
        durations, output = timed_loop(workload, inputs, budget, outcome, tracer)
    finally:
        tracer.restore()
    by_task = defaultdict(list)
    for span in tracer.spans:
        by_task[span[4]].append(span)
    metrics = tracing.median_metrics(
        [tracing.task_metrics(spans) for spans in by_task.values()]
    )
    tracer.write(spans_path)
    return durations, output, metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy  # noqa: F401  (set-up covers these imports)
    import scipy  # noqa: F401

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True)
    try:
        inputs = workload.setup(args.seed, args.workdir)
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        sites = tracing.discover()
        outcome = Outcome()
        budget = args.seconds / (2 if args.trace else 1)
        durations, output = timed_loop(workload, inputs, budget, outcome)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Self-test: the untraced run installs no wrapper ...
        self_test = [f"wrapped in the untraced run: {s}" for s in tracing.unwrapped(sites)]
        result = {"setup_s": setup_s, "solve_samples": durations, "peak_rss_mb": peak_rss_mb}
        per_layer = {}
        if args.trace:
            spans_path = args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.tsv"
            traced, traced_output, per_layer = traced_run(
                workload, inputs, budget, outcome, sites, spans_path
            )
            # ... and the traced run puts every original back.
            self_test += [f"not restored: {s}" for s in tracing.unwrapped(sites)]
            if traced_output is not None:
                output = traced_output
            if durations and traced:
                per_layer["trace.overhead_s"] = median(traced) - median(durations)
            result.update(
                traced_samples=traced,
                spans_file=str(spans_path),
                span_names=sorted({name for *_, name in sites}),
            )

        probe_attempted, probe_failed = run_probes(workload, inputs, output)
        per_layer["dynamics.long_horizon.probes"] = probe_attempted
        per_layer["dynamics.long_horizon.failed"] = len(probe_failed)
        result.update(
            per_layer=per_layer,
            attempted=outcome.attempted,
            errors=outcome.errors,
            self_test=self_test,
            probe_errors=probe_failed,
            environment=environment(),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
