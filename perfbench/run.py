"""floqlind benchmark launcher.

    python3 perfbench/run.py --workload tls-certify --seed 1 --seconds 28 --trace 0

Run from the root of a floqlind checkout.  The launcher pins the BLAS
thread count, starts fresh interpreters running ``worker.py`` (one that
runs the workload, with one before and one after it that only set up,
for the ``setup_s`` median), and prints a summary, the full result record with its
environment, and, as the last line, the JSON result whose metrics are
the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  The record is also written to
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tls-certify", "lab-trajectory", "qudit-d8", "cli-tables")
# Fresh interpreters that only set up, this many before the worker and as
# many after it; with the worker's own set-up they give the setup_s
# median.  The machine's speed drifts over seconds, so the set-ups are
# spread over the whole run.
SETUP_REPEATS = 1
# One BLAS thread: the machine's cores are shared, and threaded BLAS on
# the small matrices here mostly adds run-to-run spread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must end within this many seconds.
DEADLINE_S = 170.0


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, env, workdir: Path, deadline: float, setup_only: bool) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    command += ["--started", repr(started)]
    # subprocess.run kills and reaps the worker if it overruns.
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - started, 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    launched = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "floqlind" / "__init__.py").is_file():
        print(f"run.py: no floqlind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # Compile the library afresh in every process, so set-up time does not
    # depend on what earlier runs left behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    deadline = launched + DEADLINE_S
    workdirs = (out_dir / f"work-{os.getpid()}-{i}" for i in range(2 * SETUP_REPEATS + 1))

    def setup_only() -> list[float]:
        if args.trace:
            return []
        return [
            start_worker(args, env, next(workdirs), deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]

    try:
        setups = setup_only()
        record = start_worker(args, env, next(workdirs), deadline, setup_only=False)
        setups += [record["setup_s"]] + setup_only()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1

    samples = record["solve_samples"]
    if not samples:
        print(f"run.py: no {args.workload} task completed: {record['errors']}", file=sys.stderr)
        return 1
    values = dict(record["per_layer"])
    values.update(
        setup_s=median(setups), solve_s=median(samples), peak_rss_mb=record["peak_rss_mb"]
    )
    if args.trace:
        # A layer metric absent from the trace belongs to a layer this
        # workload never called; its name must still be a traced function.
        for metric in declared:
            stem, _, kind = metric["name"].rpartition(".")
            if metric["name"] not in values and (
                kind not in ("calls", "s", "self_s") or stem not in record["span_names"]
            ):
                print(f"run.py: unknown per-layer metric {metric['name']}", file=sys.stderr)
                return 1
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }

    wrong_probes = [p for p in record["probe_errors"] if p.startswith("wrong")]
    correct = not record["errors"] and not record["self_test"] and not wrong_probes
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples=setups, metrics=metrics,
        environment={
            "git_commit": git_commit(ROOT),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {name: env[name] for name in BLAS_ENV},
            **record.pop("environment"),
        },
    )
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {record['attempted']} operations attempted, "
          f"{len(record['errors'])} failed; solve_s is the median of {len(samples)} "
          f"untraced tasks, setup_s of {len(setups)} set-ups")
    for error in record["errors"] + record["self_test"]:
        print(f"  FAILED {error}")
    probes = record["per_layer"]["dynamics.long_horizon.probes"]
    if probes:
        print(f"  long-horizon probes: {probes} attempted, "
              f"{len(record['probe_errors'])} failed")
        for error in record["probe_errors"]:
            print(f"    {error}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    env = record["environment"]
    print(f"  environment: commit {env['git_commit'][:12]}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']['name']} "
          f"{env['blas']['version']}, nproc {env['nproc']}, "
          f"BLAS threads {BLAS_THREADS}")
    print(f"  record: {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": len(record["errors"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
