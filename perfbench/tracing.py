"""Spans recorded from outside the library, around each layer's public calls.

``Tracer.install`` replaces every public function of the layer modules at
each module attribute where a caller looks it up (``lindblad`` imports
``dissipator_superop``, ``dynamics`` imports ``propagator`` and so on),
and the spectral-density methods at class level.  ``Tracer.restore`` puts
the originals back.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, task, value]``.  ``parent`` is the
enclosing span, or for a call on a pool thread the span open on the main
thread.  ``value`` holds a count read off the call's result for the few
spans that carry one.  Spans are recorded only inside ``Tracer.task``;
calls made by the correctness checks pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

LAYERS = ("operators", "floquet", "bath", "lindblad", "dynamics", "echo", "cli")
# SpectralDensity methods, wrapped on each class that defines them.  The
# module-level twins bath.evaluate and bath.kms_ratio only forward to these.
BATH_METHODS = ("evaluate", "tail_supremum", "supremum", "kms_ratio")


def _cli_output(args, kwargs, path):
    text = Path(path).read_bytes()
    rows = sum(1 for line in text.splitlines() if not line.startswith(b"#"))
    return rows, len(text)


# Counts read off results: span name -> f(args, kwargs, result).
ANNOTATE = {
    "floquet.harmonic_decomposition": lambda a, k, h: h.n_couplings * (2 * h.q_max + 1),
    "lindblad.build_generator": lambda a, k, g: (
        g.truncation.q_max_used, len(a[1]) * (2 * g.truncation.q_max_used + 1)
    ),
    "dynamics.evolve": lambda a, k, traj: len(traj.states)
    + (0 if traj.left_states is None else len(traj.left_states)),
    "cli.run": _cli_output,
}


def discover() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every wrap site."""
    modules = {layer: importlib.import_module(f"floqlind.{layer}") for layer in LAYERS}
    # Where callers look functions up.  floqlind.oracle is left alone: it
    # is the correctness reference and is never timed.
    homes = [importlib.import_module("floqlind"), *modules.values()]
    sites = []
    for layer, module in modules.items():
        if layer == "bath":
            continue
        for attr, fn in vars(module).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            for home in homes:
                sites.extend(
                    (home, name, fn, f"{layer}.{attr}")
                    for name, value in vars(home).items()
                    if value is fn
                )
    bath = modules["bath"]
    for cls in vars(bath).values():
        if isinstance(cls, type) and issubclass(cls, bath.SpectralDensity):
            sites.extend(
                (cls, meth, vars(cls)[meth], f"bath.{meth}")
                for meth in BATH_METHODS
                if meth in vars(cls)
            )
    return sites


def unwrapped(sites) -> list[str]:
    """Wrap sites whose attribute is no longer the original function."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original, _ in sites
        if vars(owner)[attr] is not original
    ]


class Tracer:
    def __init__(self, sites):
        self.sites = sites
        self.spans: list[list] = []
        self.task_id: int | None = None
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack

    def install(self) -> None:
        for owner, attr, original, name in self.sites:
            setattr(owner, attr, self._wrap(original, name, ANNOTATE.get(name)))

    def restore(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)

    @contextmanager
    def task(self, task_id: int):
        self.task_id = task_id
        try:
            yield
        finally:
            self.task_id = None

    def _wrap(self, fn, name, annotate):
        spans, local, main_stack, clock = self.spans, self._local, self._main_stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            task = self.task_id
            if task is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name, 0.0, 0.0, parent, task, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated row.

        Ids are row numbers; times are seconds after the first span starts.
        """
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tparent\ttask\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, task, _) in enumerate(self.spans):
                parent_id = "" if parent is None else ids[id(parent)]
                out.write(
                    f"{i}\t{parent_id}\t{task}\t{name}\t"
                    f"{start - origin:.7f}\t{end - origin:.7f}\n"
                )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def task_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the spans of one task.

    ``<name>.calls`` counts spans; ``<name>.s`` sums the outermost spans of
    a name, so recursion is not counted twice; ``<name>.self_s`` is the
    span time not covered by child spans.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append(span)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for span in spans:
        name, start, end, parent = span[:4]
        calls[name] += 1
        ancestor = parent
        while ancestor is not None and ancestor[0] != name:
            ancestor = ancestor[3]
        if ancestor is None:
            inclusive[name] += end - start
        kids = [(max(c[1], start), min(c[2], end)) for c in children[id(span)]]
        own[name] += (end - start) - _covered(kids)

    metrics: dict[str, float] = {"trace.spans": len(spans)}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = inclusive[name]
        metrics[f"{name}.self_s"] = own[name]

    def values(name):  # counts of the calls that returned
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    computed = sum(values("floquet.harmonic_decomposition"))
    builds = values("lindblad.build_generator")
    metrics["floquet.harmonics_computed"] = computed
    metrics["lindblad.q_max_used"] = max((q for q, _ in builds), default=0)
    metrics["lindblad.harmonic_yield"] = (
        sum(kept for _, kept in builds) / computed if builds and computed else 0.0
    )
    metrics["dynamics.states"] = sum(values("dynamics.evolve"))
    outputs = values("cli.run")
    metrics["cli.rows"] = sum(rows for rows, _ in outputs)
    metrics["cli.bytes"] = sum(size for _, size in outputs)
    return metrics


def median_metrics(per_task: list[dict[str, float]]) -> dict[str, float]:
    """Median over tasks of each metric; a layer a task never called reads 0."""
    names = set().union(*per_task)
    return {name: median(m.get(name, 0) for m in per_task) for name in names}
