"""The layer bench: two revisions timed side by side on the cases of ``layers.py``.

    python bench/compare.py REV_A REV_B [--rounds N] [--label LABEL]

Three uses:

* ``compare.py HEAD HEAD`` is the record of where each layer stands, with
  its own noise floor: the ratios of a tree against itself;
* ``compare.py PARENT HEAD`` is the record a speed-up claim cites;
* ``compare.py HEAD $(git stash create)`` times uncommitted edits to
  tracked files: the stash commit holds them, and the working tree is
  left as it is.

Each revision's ``src/floqlind`` is written from the local git objects
(``git archive``) into a temporary directory and imported under its own
package name, ``floqlind_a`` and ``floqlind_b``, in this one process.
The process runs pinned to the first CPU it may use, with one BLAS
thread.  Every case of ``layers.py`` (``layer_cases`` and ``cli_cases``) is
called once untimed from each tree, then timed as A, B, A, B ... for N rounds before the
next case, so drift in the host's speed falls on both revisions alike
and each timed call follows a call of the same case.  (Timing the whole
list round by round instead gave the second call of each pair the
caches the first had warmed: B came out up to 2x faster than A on
unchanged code.)

Because both revisions run in one process, what depends on the process
rather than the call does not show in the ratios: a revision's import
cost, its resident memory (RSS), and the heap layout one tree's imports
leave for the other's calls.  perfbench, one process per run, measures
those.

Per case the record holds each side's facts of the untimed call
(``q_max_used`` and ``rounds`` of a generator build, ``bytes`` of a CLI
table, prefixed ``a_`` and ``b_``), each side's best and median time, the
ratio of the minima and of the medians (B over A: below 1 means B is
faster) and in how many of the N rounds B was faster than A.  It is
written to ``BENCH_compare_<LABEL>.json`` at the root of the checkout
this script lives in, with the host fingerprint and both commits.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# The script's own directory is on sys.path.  layers sets one BLAS thread
# before it imports numpy.
import layers

ROOT = layers.ROOT


def _commit(rev: str) -> str:
    return layers._git("rev-parse", "--verify", f"{rev}^{{commit}}")


def _load(commit: str, name: str, into: Path):
    """Import ``commit``'s ``src/floqlind`` as the package ``name``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src/floqlind"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = into / name / Path(member.name).relative_to("src/floqlind")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    return importlib.import_module(name)


def _once(case: layers.Case):
    """Seconds of one call of ``case``, and its result."""
    args = case.setup()
    start = time.perf_counter()
    result = case.run(*args)
    return time.perf_counter() - start, result


def _summary(key: dict, facts: list[dict], a: list[float], b: list[float]) -> dict:
    median_a, median_b = statistics.median(a), statistics.median(b)
    return {
        **key,
        **{f"{side}_{name}": value
           for side, side_facts in zip("ab", facts)
           for name, value in side_facts.items()},
        "a_best_s": min(a), "b_best_s": min(b),
        "a_median_s": median_a, "b_median_s": median_b,
        "min_ratio": min(b) / min(a),
        "median_ratio": median_b / median_a,
        "b_faster": sum(tb < ta for ta, tb in zip(a, b)),
        "of": len(a),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", help="the revision compared against")
    parser.add_argument("rev_b", help="the revision timed against it")
    parser.add_argument("--rounds", type=int, default=15, help="A, B pairs per case")
    parser.add_argument("--label", help="the output is BENCH_compare_<label>.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    commits = _commit(args.rev_a), _commit(args.rev_b)
    label = args.label or f"{commits[0][:7]}-{commits[1][:7]}"
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        sys.path.insert(0, str(scratch))
        sides = []
        for commit, name in zip(commits, ("floqlind_a", "floqlind_b")):
            workdir = scratch / f"{name}_cli"
            workdir.mkdir()
            package = _load(commit, name, scratch)
            sides.append(layers.layer_cases(package)
                         + layers.cli_cases(package, workdir))
        cases_a, cases_b = sides
        samples = []
        for a, b in zip(cases_a, cases_b):
            # The warm-up call (imports, caches) gives the facts.
            facts = [case.facts(_once(case)[1]) for case in (a, b)]
            pairs = [(_once(a)[0], _once(b)[0]) for _ in range(args.rounds)]
            samples.append((facts, *zip(*pairs)))
    record = {
        "label": label,
        "a": {"rev": args.rev_a, "commit": commits[0]},
        "b": {"rev": args.rev_b, "commit": commits[1]},
        "rounds": args.rounds,
        "host": layers._fingerprint(cpu),
        "cases": [_summary(c.key, *s) for c, s in zip(cases_a, samples)],
        "wall_s": time.perf_counter() - start,
    }
    out = ROOT / f"BENCH_compare_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
