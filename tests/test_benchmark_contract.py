"""The benchmark's per-layer metrics name functions the library still has.

``perfbench/run.py --trace 1`` exits 1 when BENCHMARK.json declares a
``<layer>.<fn>.{calls,s,self_s}`` metric whose ``<layer>.<fn>`` is not a
span that ``perfbench/tracing.py`` can wrap, so deleting or renaming a
benchmarked function breaks the benchmark.  This test catches that in
the unit suite, reading tracing.py as the benchmark does.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_metric_names_a_traced_function():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = {name for *_, name in _tracing().discover()}
    stems = {
        stem
        for metric in spec["per_layer"]
        for stem, _, kind in [metric["name"].rpartition(".")]
        if kind in ("calls", "s", "self_s")
    }
    assert stems, "BENCHMARK.json declares no span metrics"
    assert sorted(stems - spans) == []
