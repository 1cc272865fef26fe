"""The benchmark still runs against the library.

``perfbench/run.py --trace 1`` exits 1 when BENCHMARK.json declares a
``<layer>.<fn>.{calls,s,self_s}`` metric whose ``<layer>.<fn>`` is not a
span that ``perfbench/tracing.py`` can wrap, so deleting or renaming a
benchmarked function breaks the benchmark.  And every workload in
``perfbench/workloads.py`` has a correctness gate that reads library
API.  These tests catch both in the unit suite, loading the perfbench
modules by path as the benchmark does.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / filename
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", "tracing.py")


WORKLOADS = _load("perfbench_workloads", "workloads.py").WORKLOADS


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_gate_once(name, tmp_path):
    """One set-up, task and correctness check per workload at seed 1, and
    every long-horizon probe, as a benchmark repeat runs them."""
    workload = WORKLOADS[name]
    inputs = workload.setup(1, tmp_path)
    output = workload.task(inputs)
    workload.check(inputs, output)
    probes = workload.probes(inputs, output) if workload.probes else ()
    for _, probe in probes:
        probe()
