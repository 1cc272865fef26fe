"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed, workdir)`` turns the seed into the inputs: models, baths,
  states, times and config files.  Set-up time is ``setup_s``.
* ``task(inputs)`` is the timed unit of work.  It reaches every layer
  through a module attribute looked up at call time, such as
  ``floquet.harmonic_decomposition``, so the traced run's wrappers see
  every call.
* ``check(inputs, output)`` raises ``CheckFailed`` when the output misses
  its correctness gate.  Checks are never timed.  ``floqlind.oracle`` is
  used only here, as the reference.

``probes(inputs, output)`` yields extra operations that are counted but
not timed; only ``lab-trajectory`` has them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from floqlind import bath, cli, dynamics, floquet, lindblad, oracle
from floqlind.operators import PAULI_X, PAULI_Z


class CheckFailed(Exception):
    """A task's output missed its correctness gate."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    task: Callable
    check: Callable
    probes: Callable | None = None


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


# --- the magic-angle dephasing TLS shared by tls-certify and lab-trajectory --

TLS = SimpleNamespace(delta=0.6, period=1.3, t2=2.0, tau_c=3.0, omega_ext=4.4)


def _tls_inputs() -> SimpleNamespace:
    p = TLS
    model = floquet.KickedModel(
        h0=0.5 * p.delta * PAULI_Z, kick=PAULI_X, strength=math.pi / 2.0,
        period=p.period,
    )
    eta = lindblad.rate_parallel_closed(p.period, p.t2, p.tau_c).eta
    return SimpleNamespace(
        model=model,
        coupling=PAULI_Z / math.sqrt(2.0),
        density=bath.Lorentzian(t2=p.t2, tau_c=p.tau_c),
        eta=eta,
        params=dynamics.TLSParams(
            omega0=p.omega_ext + p.delta, omega_ext=p.omega_ext,
            period=p.period, eta=eta,
        ),
    )


def _tls_generator(x: SimpleNamespace, rel_tol: float):
    h = floquet.harmonic_decomposition(x.model, [x.coupling], q_max=64)
    return lindblad.build_generator(h, [x.density], rel_tol=rel_tol)


def _state_tolerance(g, eta: float) -> float:
    """Largest state error the certified truncation allows.

    A discarded rate weight of at most ``tail_bound`` moves eta by at most
    that much, and d/d(eta) of e^{-eta t} and e^{-2 eta t} is bounded by
    1/(e eta) over all t; 1e-12 covers rounding in the propagation.
    """
    return g.truncation.tail_bound / (math.e * eta) + 1e-12


# --- tls-certify -------------------------------------------------------------


def tls_certify_setup(seed: int, workdir: Path) -> SimpleNamespace:
    x = _tls_inputs()
    x.audit_times = np.random.default_rng(seed).uniform(0.0, 5.0 / x.eta, 20)
    return x


def tls_certify_task(x: SimpleNamespace):
    g = _tls_generator(x, rel_tol=1e-12)
    reports = [
        lindblad.verify_cptp(lindblad.semigroup(g, float(t))) for t in x.audit_times
    ]
    return g, reports


def tls_certify_check(x: SimpleNamespace, output) -> None:
    g, reports = output
    failed = [r for r in reports if not r.passed]
    if failed:
        raise CheckFailed(f"{len(failed)} of {len(reports)} CPTP audits failed")
    change = np.kron(g.basis.conj(), g.basis)
    eta_generator = -(change.conj().T @ g.superop @ change)[1, 1].real
    # The rate error is bounded by the discarded rate weight; 1e-12 eta
    # covers rounding in the assembly sum.
    bound = g.truncation.tail_bound + 1e-12 * x.eta
    residual = abs(eta_generator - x.eta)
    if not residual <= bound:
        raise CheckFailed(f"generator rate off by {residual:.3e} > {bound:.3e}")


# --- lab-trajectory ----------------------------------------------------------

# Single-time probes at (10^k + 1/4) periods, k = 2..9.
PROBE_PERIODS = tuple(10**k + 0.25 for k in range(2, 10))


def lab_trajectory_setup(seed: int, workdir: Path) -> SimpleNamespace:
    x = _tls_inputs()
    x.rho0 = _random_density(np.random.default_rng(seed), 2)
    x.times = np.linspace(0.0, 5.0 / x.eta, 2001)[1:]
    return x


def lab_trajectory_task(x: SimpleNamespace):
    g = _tls_generator(x, rel_tol=1e-8)
    traj = dynamics.evolve(
        x.model, g, x.rho0, x.times, frame="lab", omega_ext=TLS.omega_ext,
        emit_left_limits=True,
    )
    return g, traj


def _closed_form_error(x: SimpleNamespace, t: float, state: np.ndarray) -> float:
    return float(np.max(np.abs(state - dynamics.closed_form_parallel(x.params, x.rho0, t))))


def lab_trajectory_check(x: SimpleNamespace, output) -> None:
    g, traj = output
    tol = _state_tolerance(g, x.eta)
    for t, state, left in zip(traj.times, traj.states, traj.left_states):
        err = _closed_form_error(x, float(t), state)
        if not err <= tol:
            raise CheckFailed(f"state at t = {t} off by {err:.3e} > {tol:.3e}")
        # Away from kick times the left limit is the state itself.
        if floquet.floor_frac(float(t), TLS.period)[1] > 0.0 and not np.array_equal(left, state):
            raise CheckFailed(f"left limit differs from the state at t = {t}")


def lab_trajectory_probes(x: SimpleNamespace, output):
    """Yield (label, run) pairs; ``run`` raises or fails its check."""
    g, _ = output
    tol = _state_tolerance(g, x.eta)

    def probe(t: float) -> None:
        state = dynamics.evolve(
            x.model, g, x.rho0, [t], frame="lab", omega_ext=TLS.omega_ext
        ).states[0]
        err = _closed_form_error(x, t, state)
        if not err <= tol:
            raise CheckFailed(f"probe at t = {t} off by {err:.3e} > {tol:.3e}")

    for periods in PROBE_PERIODS:
        yield f"{periods:.2e} periods", lambda t=periods * TLS.period: probe(t)


# --- qudit-d8 ----------------------------------------------------------------


def qudit_setup(seed: int, workdir: Path) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    dim = 8
    h0 = _random_hermitian(rng, dim)
    kick = _random_hermitian(rng, dim)
    couplings = []
    for _ in range(2):
        s = _random_hermitian(rng, dim)
        couplings.append(s / np.linalg.norm(s))
    return SimpleNamespace(
        model=floquet.KickedModel(
            h0=h0 / np.linalg.norm(h0, 2), kick=kick / np.linalg.norm(kick, 2),
            strength=1.0, period=1.0,
        ),
        couplings=couplings,
        densities=[
            bath.Lorentzian(t2=2.0, tau_c=0.3),
            bath.PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0),
        ],
        rho0=_random_density(rng, dim),
        times=np.linspace(0.0, 50.0, 51)[1:],
        audit_time=10.0,
        oracle_time=20.0,
    )


def qudit_task(x: SimpleNamespace):
    h = floquet.harmonic_decomposition(x.model, x.couplings, q_max=16)
    g = lindblad.build_generator(h, x.densities, rel_tol=1e-6)
    traj = dynamics.evolve(x.model, g, x.rho0, x.times, frame="rotating")
    report = lindblad.verify_cptp(lindblad.semigroup(g, x.audit_time))
    return g, traj, report


def qudit_check(x: SimpleNamespace, output) -> None:
    g, traj, report = output
    if not report.passed:
        raise CheckFailed(f"CPTP audit failed: {report}")
    if len(traj.states) != len(x.times):
        raise CheckFailed("trajectory has the wrong number of states")
    engine = dynamics.evolve(
        x.model, g, x.rho0, [x.oracle_time], frame="interaction"
    ).states[0]
    dt = 0.005 / np.linalg.norm(g.superop, 2)
    stepped = oracle.integrate_master_equation(g, x.rho0, x.oracle_time, dt=dt)
    err = float(np.max(np.abs(engine - stepped)))
    if not err <= 1e-8:
        raise CheckFailed(f"interaction-frame state off the RK4 oracle by {err:.3e}")


# --- cli-tables --------------------------------------------------------------

RATE_POINTS = 20_000
ECHO_POINTS = 40_000
SAMPLED_ROWS = 25


def _ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="ascii")
    return path


def cli_setup(seed: int, workdir: Path) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    t2, tau_c = rng.uniform(1.0, 3.0), rng.uniform(0.5, 5.0)
    coupling, cutoff = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
    period = rng.uniform(0.8, 1.6)
    deltas = rng.uniform(-2.0, 2.0, 4)
    weights = rng.dirichlet(np.ones(4))
    weights[-1] = 1.0 - weights[:-1].sum()
    sigma = rng.uniform(0.5, 3.0)
    # Rates at a slow and a fast kick period, from a seeded bath.
    bath_t2, bath_tau = rng.uniform(1.0, 3.0), rng.uniform(0.5, 5.0)
    measured = [
        (p, lindblad.rate_parallel_closed(p, bath_t2, bath_tau).eta)
        for p in (50.0 * bath_tau, 0.5 * bath_tau)
    ]
    (workdir / "measured.txt").write_text(
        "".join(f"{p!r} {eta!r}\n" for p, eta in measured), encoding="ascii"
    )

    def run(scenario: str, output: str) -> dict:
        return {"schema_version": 1, "scenario": scenario, "output": output,
                "seed": seed}

    echo_model = {"t2": repr(t2), "tau_c": repr(tau_c), "period": repr(period),
                  "omega0": 4.4, "x1_0": 0.6, "x2_0": 0.8}
    echo_sweep = {"parameter": "time", "start": 0.0,
                  "stop": repr(40.0 * period), "points": ECHO_POINTS}
    configs = [
        _ini(workdir / "parallel.ini", {
            "run": run("rates-parallel", "parallel.tsv"),
            "model": {"t2": repr(t2), "tau_c": repr(tau_c)},
            "sweep": {"parameter": "omega", "start": 0.05, "stop": 50.0,
                      "points": RATE_POINTS, "spacing": "log"},
        }),
        _ini(workdir / "perp.ini", {
            "run": run("rates-perp", "perp.tsv"),
            "model": {"coupling": repr(coupling), "cutoff": repr(cutoff)},
            "sweep": {"parameter": "omega", "start": 0.1, "stop": 20.0,
                      "points": RATE_POINTS},
        }),
        _ini(workdir / "echo-discrete.ini", {
            "run": run("echo", "echo-discrete.tsv"),
            "model": echo_model,
            "ensemble": {"kind": "discrete",
                         "deltas": " ".join(repr(float(d)) for d in deltas),
                         "weights": " ".join(repr(float(w)) for w in weights)},
            "sweep": echo_sweep,
        }),
        _ini(workdir / "echo-gaussian.ini", {
            "run": run("echo", "echo-gaussian.tsv"),
            "model": echo_model,
            "ensemble": {"kind": "gaussian", "sigma": repr(sigma)},
            "sweep": echo_sweep,
        }),
        _ini(workdir / "extract.ini", {
            "run": run("extract-tauc", "extract.tsv") | {"input": "measured.txt"},
        }),
    ]
    return SimpleNamespace(
        configs=configs, rng=rng, digests=None,
        t2=t2, tau_c=tau_c, coupling=coupling, cutoff=cutoff, period=period,
        deltas=deltas, weights=weights, sigma=sigma, measured=measured,
    )


def cli_task(x: SimpleNamespace):
    return [cli.run(config) for config in x.configs]


def _rows(path: Path) -> list[list[float]]:
    text = path.read_text(encoding="ascii")
    return [
        [float(cell) for cell in line.split("\t")]
        for line in text.splitlines()
        if not line.startswith("#")
    ]


def _close(got: float, want: float, rel: float = 1e-11, abs_: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def cli_check(x: SimpleNamespace, output) -> None:
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in output]
    if x.digests is None:
        x.digests = digests
    elif digests != x.digests:
        raise CheckFailed("TSV bytes differ from the first repeat")
    parallel, perp, echo_discrete, echo_gaussian, extract = (_rows(p) for p in output)

    omegas = np.geomspace(0.05, 50.0, RATE_POINTS)
    lorentz = bath.Lorentzian(t2=x.t2, tau_c=x.tau_c)
    for i in x.rng.choice(RATE_POINTS, SAMPLED_ROWS, replace=False):
        want_period = 2.0 * math.pi / omegas[i]
        want = (omegas[i], want_period,
                lindblad.rate_parallel_closed(want_period, x.t2, x.tau_c).eta,
                lorentz.evaluate(omegas[i]))
        if not all(_close(a, b) for a, b in zip(parallel[i], want)):
            raise CheckFailed(f"rates-parallel row {i} is {parallel[i]}, want {want}")

    omegas = np.linspace(0.1, 20.0, RATE_POINTS)
    phonon = bath.PhononCutoff(coupling=x.coupling, cutoff=x.cutoff)
    for i in x.rng.choice(RATE_POINTS, SAMPLED_ROWS, replace=False):
        want = (omegas[i], lindblad.rate_perp_closed(omegas[i], x.coupling, x.cutoff).eta,
                phonon.evaluate(omegas[i]))
        if not all(_close(a, b) for a, b in zip(perp[i], want)):
            raise CheckFailed(f"rates-perp row {i} is {perp[i]}, want {want}")

    eta = lindblad.rate_parallel_closed(x.period, x.t2, x.tau_c).eta
    times = np.linspace(0.0, 40.0 * x.period, ECHO_POINTS)
    characteristic = {
        "discrete": lambda u: np.sum(x.weights * np.exp(1j * x.deltas * u)),
        "gaussian": lambda u: math.exp(-0.5 * (x.sigma * u) ** 2),
    }
    for kind, table in (("discrete", echo_discrete), ("gaussian", echo_gaussian)):
        for i in x.rng.choice(ECHO_POINTS, SAMPLED_ROWS, replace=False):
            t = times[i]
            n, frac = floquet.floor_frac(float(t), x.period)
            mean = np.exp(4.4j * t) * characteristic[kind](x.period * (frac - 0.5))
            slow, fast = (-1.0) ** n * math.exp(-eta * t), math.exp(-2.0 * eta * t)
            want = (t, mean.real, mean.imag,
                    fast * mean.real * 0.6 - slow * mean.imag * 0.8,
                    fast * mean.imag * 0.6 + slow * mean.real * 0.8)
            if not all(_close(a, b, abs_=1e-11) for a, b in zip(table[i], want)):
                raise CheckFailed(f"echo {kind} row {i} is {table[i]}, want {want}")

    # The inversion reads 1/T2 off the slow rate and must reproduce the
    # fast rate through the closed form.
    (_, eta_slow), (t_fast, eta_fast) = x.measured
    t2, tau_c = extract[0][:2]
    refit = lindblad.rate_parallel_closed(t_fast, t2, tau_c).eta
    if not (_close(t2, 1.0 / eta_slow) and _close(refit, eta_fast, rel=1e-9)):
        raise CheckFailed(
            f"extract-tauc gave t2 = {t2}, tau_c = {tau_c}: refit fast rate "
            f"{refit} against {eta_fast}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tls-certify", tls_certify_setup, tls_certify_task, tls_certify_check),
        Workload("lab-trajectory", lab_trajectory_setup, lab_trajectory_task,
                 lab_trajectory_check, lab_trajectory_probes),
        Workload("qudit-d8", qudit_setup, qudit_task, qudit_check),
        Workload("cli-tables", cli_setup, cli_task, cli_check),
    )
}
