"""Layer bench: each floqlind layer timed on its own, each CLI scenario end to end.

    python bench/layers.py LABEL

Run from anywhere; the script imports the ``src/`` next to it, so it times
the checkout it lives in.  It writes ``BENCH_<LABEL>.json`` at the root of
that checkout.

The process runs pinned to the first CPU it may use, with one BLAS
thread.  Every entry is timed ``REPEATS`` times after one
untimed warm-up call and reports the best and the median wall time.
Inputs that a call would cache (a ``HarmonicDecomposition``'s
coefficients, a generator's Bohr blocks) are built afresh, untimed, for
each repeat of the layer that forms them.

Layers, at d = 2, 4 and 8, on seeded random models (H0 and the kick of
spectral norm 1, strength 1, period 1, couplings of Frobenius norm 1):

* ``decompose`` and ``harmonic_decomposition`` (q_max 16);
* ``build_generator`` at rel_tol 1e-4, 1e-8 and 1e-12, from q_max 16,
  with one Lorentzian coupling and with a Lorentzian plus a
  finite-temperature ``PhononCutoff`` coupling; ``q_max_used`` and
  the number of doubling rounds are recorded with each;
* ``semigroup`` at one time and ``evolve`` over 2000 times, in every
  frame the model has (lab at d = 2 only), from the 1e-8 generator;
* ``echo_signal`` over 2000 times for a Gaussian and a discrete ensemble.

CLI scenarios: ``cli.run`` on one config per scenario, with the sizes of
the benchmark's ``cli-tables`` workload (20 000 rate points, 40 000 echo
points) and a 2000-point trajectory.

``layer_cases`` and ``cli_cases`` build the entries from a floqlind
package passed in, so ``bench/compare.py`` times the same list on two
revisions.

The host fingerprint records the commit and ``dirty``, whether the
checkout has changes ``git status`` reports, so a run on edited code
says so.  It also records numpy's active SIMD targets (what
``NPY_DISABLE_CPU_FEATURES`` leaves on) and the core type OpenBLAS picked
in numpy's and scipy's builds, since either moves the timings.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads its BLAS.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import ctypes
import glob
import importlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DIMS = (2, 4, 8)
REL_TOLS = (1e-4, 1e-8, 1e-12)
Q_START = 16
POINTS = 2000
REPEATS = 7


@dataclass(frozen=True)
class Case:
    """One timed entry: ``run(*setup())`` is timed, ``setup`` is not.

    ``key`` names the entry in the record, and ``facts(result)`` adds what
    the record keeps of a call's result.
    """

    key: dict
    run: Callable
    setup: Callable = tuple
    facts: Callable = lambda result: {}


def _timed(case: Case):
    """{"best_s", "median_s"} of ``case`` and its last result."""
    samples = []
    for _ in range(REPEATS + 1):
        args = case.setup()
        start = time.perf_counter()
        result = case.run(*args)
        samples.append(time.perf_counter() - start)
    samples = samples[1:]  # the first call warms caches and imports
    return {"best_s": min(samples), "median_s": statistics.median(samples)}, result


def _hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def _model(fl, dim: int):
    """A seeded model, its two couplings and the initial state."""
    rng = np.random.default_rng(100 + dim)
    h0, kick = (_hermitian(rng, dim) for _ in range(2))
    model = fl.KickedModel(
        h0=h0 / np.linalg.norm(h0, 2),
        kick=kick / np.linalg.norm(kick, 2),
        strength=1.0,
        period=1.0,
    )
    couplings = [_hermitian(rng, dim) for _ in range(2)]
    couplings = [c / np.linalg.norm(c) for c in couplings]
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return model, couplings, np.outer(psi, psi.conj())


def _baths(fl) -> dict:
    return {
        "lorentzian": (fl.Lorentzian(t2=2.0, tau_c=0.7),),
        "lorentzian+phonon": (
            fl.Lorentzian(t2=2.0, tau_c=0.7),
            fl.PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0),
        ),
    }


def _coefficients(fl, model, couplings):
    return fl.harmonic_decomposition(model, couplings, Q_START).coefficients


def _fresh(fl, model, couplings):
    return (fl.harmonic_decomposition(model, couplings, Q_START),)


def _truncation(g) -> dict:
    return {"q_max_used": g.truncation.q_max_used,
            "rounds": len(g.truncation.rounds)}


def layer_cases(fl) -> list[Case]:
    """Every layer entry, from the floqlind package ``fl``."""
    cases = []
    for dim in DIMS:
        model, couplings, rho0 = _model(fl, dim)
        case = {"d": dim}
        cases.append(Case({"layer": "decompose", **case}, partial(fl.decompose, model)))
        cases.append(Case({"layer": "harmonic_decomposition", **case},
                          partial(_coefficients, fl, model, couplings)))
        for baths, densities in _baths(fl).items():
            fresh = partial(_fresh, fl, model, couplings[: len(densities)])
            for rel_tol in REL_TOLS:
                build = partial(fl.build_generator, densities=densities,
                                rel_tol=rel_tol)
                cases.append(Case({"layer": "build_generator", **case,
                                   "baths": baths, "rel_tol": rel_tol},
                                  build, fresh, _truncation))
        h = fl.harmonic_decomposition(model, couplings[:1], Q_START)
        g = fl.build_generator(h, _baths(fl)["lorentzian"], 1e-8)
        cases.append(Case({"layer": "semigroup", **case},
                          partial(fl.semigroup, g, 3.7)))
        times = np.linspace(0.0, 50.0 * model.period, POINTS)
        frames = ("interaction", "rotating") + (("lab",) if dim == 2 else ())
        for frame in frames:
            lab = 5.0 if frame == "lab" else None
            cases.append(Case(
                {"layer": "evolve", **case, "frame": frame, "points": POINTS},
                partial(fl.evolve, model, g, rho0, times, frame=frame, omega_ext=lab),
            ))
    params = fl.TLSParams(omega0=5.0, omega_ext=4.8, period=1.3,
                          eta=fl.rate_parallel_closed(1.3, 2.0, 3.0).eta)
    times = np.linspace(0.0, 40.0 * params.period, POINTS)
    ensembles = {
        "gaussian": fl.GaussianDetuning(sigma=2.3),
        "discrete": fl.DiscreteDetuning(deltas=np.array([-1.1, 0.4, 2.0]),
                                        weights=np.array([0.3, 0.45, 0.25])),
    }
    for kind, ensemble in ensembles.items():
        cases.append(Case(
            {"layer": "echo_signal", "ensemble": kind, "points": POINTS},
            partial(fl.echo_signal, ensemble, params, (0.6, 0.8), times),
        ))
    return cases


TLS = {"t2": 2.0, "tau_c": 3.0, "period": 1.3}
# Each scenario's sections; cli_cases adds schema_version, scenario and output.
CLI_CONFIGS = {
    "rates-parallel": {
        "model": {"t2": 2.0, "tau_c": 3.0},
        "sweep": {"parameter": "omega", "start": 0.05, "stop": 50.0,
                  "points": 20_000, "spacing": "log"},
    },
    "rates-perp": {
        "model": {"coupling": 1.0, "cutoff": 1.0},
        "sweep": {"parameter": "omega", "start": 0.1, "stop": 20.0,
                  "points": 20_000},
    },
    "trajectory": {
        "model": {**TLS, "omega0": 5.0, "x1_0": 0.6, "x3_0": 0.8},
        "sweep": {"parameter": "time", "start": 0.0, "stop": 30.0,
                  "points": POINTS},
    },
    "echo": {
        "model": {**TLS, "omega0": 5.0, "x1_0": 0.6, "x2_0": 0.8},
        "ensemble": {"kind": "gaussian", "sigma": 2.3},
        "sweep": {"parameter": "time", "start": 0.0, "stop": 52.0,
                  "points": 40_000},
    },
    "generator-audit": {"model": TLS},
    "extract-tauc": {"run": {"input": "measured.txt"}},
}


def cli_cases(fl, workdir: Path) -> list[Case]:
    """``cli.run`` on one config per scenario, written into ``workdir``."""
    cli = importlib.import_module(f"{fl.__name__}.cli")
    cases = []
    (workdir / "measured.txt").write_text("5000.0 0.5\n0.37 0.3\n")
    for scenario, sections in CLI_CONFIGS.items():
        run = {"schema_version": 1, "scenario": scenario, "output": "out.tsv"}
        sections = {**sections, "run": run | sections.get("run", {})}
        lines = []
        for section, entries in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in entries.items())
        config = workdir / f"{scenario}.ini"
        config.write_text("\n".join(lines) + "\n", encoding="ascii")
        cases.append(Case({"scenario": scenario}, partial(cli.run, config),
                          facts=lambda path: {"bytes": path.stat().st_size}))
    return cases


def _rows(cases: list[Case]) -> list[dict]:
    rows = []
    for case in cases:
        timing, result = _timed(case)
        rows.append({**case.key, **case.facts(result), **timing})
    return rows


def _openblas(package) -> dict:
    """Core type and configuration of the OpenBLAS a wheel bundles, if any."""
    folder = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = {}
    for path in glob.glob(str(folder / "*openblas*")):
        lib = ctypes.CDLL(path)
        for key in ("corename", "config"):
            for prefix in ("scipy_openblas_get_", "openblas_get_"):
                function = getattr(lib, f"{prefix}{key}64_", None) or getattr(
                    lib, f"{prefix}{key}", None)
                if function is not None:
                    function.restype = ctypes.c_char_p
                    found[key] = function().decode()
                    break
    return found or {"corename": "unknown"}


def _git(*command: str) -> str:
    return subprocess.run(
        ["git", *command], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def _fingerprint(cpu: int) -> dict:
    import scipy

    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    try:
        commit = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain"))  # timed code is not ``commit``
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unknown", None
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": model,
        "pinned_cpu": cpu,
        "blas_threads": 1,
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
        "numpy_openblas": _openblas(np),
        "scipy_openblas": _openblas(scipy),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the output is BENCH_<label>.json")
    args = parser.parse_args(argv)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    fl = importlib.import_module("floqlind")
    record = {"label": args.label, "repeats": REPEATS, "host": _fingerprint(cpu)}
    record["layers"] = _rows(layer_cases(fl))
    with tempfile.TemporaryDirectory() as workdir:
        record["cli"] = _rows(cli_cases(fl, Path(workdir)))
    record["wall_s"] = time.perf_counter() - start
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
