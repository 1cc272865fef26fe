"""`scipy.linalg` and `scipy.optimize` load only where they are called.

`import floqlind` and `floqlind.cli` load numpy and the `scipy` package
alone.  `scipy.linalg` takes about 0.2 s to import and loads at the first
matrix function: a build, a semigroup, an evolve.  The CLI's rate, echo
and extract-tauc tables call none, so they never pay it.  `scipy.optimize`
takes about 0.4 s, `scipy.linalg` included, and nothing in floqlind uses
it: `extract_tau_c` runs its own Brent root search, and every tail bound,
`PhononCutoff`'s at finite temperature too, is a closed form.  Each check
runs in a fresh interpreter, so that the modules this test session has
already imported cannot hide a module-level import.
"""
import json
import os
import subprocess
import sys
import textwrap

from conftest import SRC
from test_cli import (
    AUDIT_CONFIG,
    ECHO_CONFIG,
    EXTRACT_CONFIG,
    PARALLEL_CONFIG,
    PERP_CONFIG,
    TRAJECTORY_CONFIG,
    write_config,
)

DEFERRED = ("scipy.linalg", "scipy.optimize")
LINALG = ["scipy.linalg"]


def _run_steps(steps, *argv):
    """Run each (name, code) step in order in one fresh interpreter; return
    {name: the modules of ``DEFERRED`` loaded after it} and the last value
    of ``out``."""
    lines = ["import json, sys", "out = None", "loaded = {}"]
    for name, code in steps:
        lines.append(code)
        lines.append(
            f"loaded[{name!r}] = [m for m in {DEFERRED!r} if m in sys.modules]"
        )
    lines.append("print(json.dumps([loaded, out]))")
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines), *argv],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_leaves_scipy_optimize_unloaded():
    """And scipy.linalg too: the import loads neither deferred module."""
    loaded, _ = _run_steps([("import", "import floqlind, floqlind.cli")])
    assert loaded == {"import": []}


def test_a_lorentzian_build_and_its_dynamics_never_load_scipy_optimize():
    """The first matrix function, in the Floquet decomposition, loads
    scipy.linalg."""
    loaded, out = _run_steps([
        ("import", textwrap.dedent("""
            import math
            import numpy as np
            from floqlind import (
                PAULI_X, PAULI_Z, KickedModel, Lorentzian, build_generator,
                density_from_bloch, evolve, harmonic_decomposition, semigroup,
                verify_cptp,
            )
        """)),
        ("setup", textwrap.dedent("""
            model = KickedModel(h0=0.3 * PAULI_Z, kick=PAULI_X,
                                strength=math.pi / 2, period=1.3)
            harmonics = harmonic_decomposition(
                model, (PAULI_Z / math.sqrt(2.0),), q_max=64)
        """)),
        ("build", "g = build_generator(harmonics, (Lorentzian(t2=2.0, tau_c=3.0),))"),
        ("semigroup", "s = semigroup(g, 0.7)"),
        ("verify_cptp", "report = verify_cptp(s)"),
        ("evolve", textwrap.dedent("""
            rho0 = density_from_bloch([0.6, 0.0, 0.8])
            states = evolve(model, g, rho0, np.linspace(0.0, 20.0, 50),
                            frame="lab", omega_ext=5.0)
            out = states.bloch().shape
        """)),
    ])
    assert loaded == {
        "import": [],
        **dict.fromkeys(("setup", "build", "semigroup", "verify_cptp", "evolve"), LINALG),
    }
    assert out == [50, 3]


def test_cli_table_scenarios_load_neither_deferred_module(tmp_path):
    """The rate, echo and extract-tauc tables call no matrix function and
    load neither deferred module; the trajectory and the audit build a
    generator, which loads scipy.linalg.  No scenario loads scipy.optimize."""
    bodies = {
        "rates-parallel": PARALLEL_CONFIG,
        "rates-perp": PERP_CONFIG,
        "echo": ECHO_CONFIG,
        "extract-tauc": EXTRACT_CONFIG,
        "trajectory": TRAJECTORY_CONFIG,
        "generator-audit": AUDIT_CONFIG,
    }
    (tmp_path / "measured.txt").write_text("5000.0 0.5\n0.37 0.1\n", encoding="ascii")
    paths = [
        str(write_config(tmp_path, body, name=f"{scenario}.ini"))
        for scenario, body in bodies.items()
    ]
    steps = [("import", "from pathlib import Path\nfrom floqlind import cli")]
    steps += [
        (scenario, f"out = cli.run(Path(sys.argv[{k}])).name")
        for k, scenario in enumerate(bodies, start=1)
    ]
    loaded, _ = _run_steps(steps, *paths)
    assert loaded == {
        **dict.fromkeys(
            ["import", "rates-parallel", "rates-perp", "echo", "extract-tauc"], []
        ),
        **dict.fromkeys(["trajectory", "generator-audit"], LINALG),
    }


def test_a_finite_temperature_phonon_build_never_loads_scipy_optimize():
    """The qudit benchmark's baths: a Lorentzian and a warm phonon bath.  The
    phonon tail bound is a closed form, gamma(w) itself from w = 3 cutoff
    and gamma(2 cutoff) (3/2)^3 at w = 0."""
    loaded, out = _run_steps([
        ("import", "import floqlind"),
        ("tail", textwrap.dedent("""
            cold = floqlind.PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0)
            hot = floqlind.PhononCutoff(coupling=0.05, cutoff=1.0, beta=0.3)
            tails = [cold.tail_supremum(0.0), cold.tail_supremum(4.0),
                     hot.tail_supremum(0.0)]
        """)),
        ("build", textwrap.dedent("""
            import numpy as np
            rng = np.random.default_rng(8)
            def herm(d):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                return (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)
            model = floqlind.KickedModel(h0=herm(8), kick=herm(8), strength=1.0,
                                         period=1.0)
            harmonics = floqlind.harmonic_decomposition(
                model, (herm(8), herm(8)), q_max=16)
            baths = (floqlind.Lorentzian(t2=2.0, tau_c=0.3),
                     floqlind.PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0))
            g = floqlind.build_generator(harmonics, baths, rel_tol=1e-6)
            out = [tails, g.truncation.q_max_used]
        """)),
    ])
    assert loaded == {"import": [], "tail": [], "build": LINALG}
    assert out == [[0.1861113812209537, 0.05862971252138497, 0.4049364899124524], 32]


def test_extract_tau_c_loads_neither_deferred_module_and_keeps_its_floats():
    loaded, out = _run_steps([
        ("import", "import floqlind"),
        ("extract", textwrap.dedent("""
            r = floqlind.extract_tau_c(eta_slow=0.5, eta_fast=0.1, t_fast=0.37)
            out = [r.t2, r.tau_c, r.residual, r.degenerate]
        """)),
    ])
    assert loaded == {"import": [], "extract": []}
    assert out == [2.0, 0.20832987774129025, 5.551115123125783e-17, False]
