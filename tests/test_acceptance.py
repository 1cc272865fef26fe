"""Acceptance suite: one test per advertised guarantee, each with a runtime budget.

Every claim the package makes about its closed forms is checked here
against an independent path (brute-force oracle, algebraic identity, or
emitted table), at the tolerance promised in the README.
"""

import math
import textwrap
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    analytic_floquet_pair,
    component,
    eta_from_generator,
    magic_model,
    rand_density,
    rand_herm,
)

from floqlind import cli, oracle
from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import TLSParams, closed_form_parallel, closed_form_perp, evolve
from floqlind.echo import (
    DiscreteDetuning,
    GaussianDetuning,
    UniformDetuning,
    averaged_phase,
    extract_tau_c,
)
from floqlind.floquet import (
    KickedModel,
    decompose,
    floor_frac,
    harmonic_decomposition,
    propagator,
)
from floqlind.lindblad import (
    build_generator,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
    verify_cptp,
)
from floqlind.operators import PAULI_X, PAULI_Y, PAULI_Z


def test_criterion_01_series_rate_matches_closed_form():
    start = time.perf_counter()
    t2, tau_c = 1.9, 0.7
    for ratio in (0.01, 0.1, 1.0, 10.0, 100.0):
        period = ratio * tau_c
        series = oracle.series_rate_parallel(period, t2, tau_c)
        closed = rate_parallel_closed(period, t2, tau_c).eta
        assert series.eta == pytest.approx(closed, rel=1e-8)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_dephasing_rate_limits():
    start = time.perf_counter()
    t2, tau_c = 2.0, 3.0
    matched = rate_parallel_closed(2.0 * tau_c, t2, tau_c)
    assert matched.eta * t2 == pytest.approx(1.0 - math.tanh(1.0), abs=1e-12)
    period = tau_c / 100.0
    fast = rate_parallel_closed(period, t2, tau_c)
    assert fast.eta * t2 == pytest.approx(period**2 / (12.0 * tau_c**2), rel=1e-4)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_transverse_rate_matches_generator():
    start = time.perf_counter()
    coupling, cutoff = 0.8, 1.0
    density = PhononCutoff(coupling=coupling, cutoff=cutoff)
    for omega in (0.5, 1.0, 2.0, 5.0, 20.0):
        m = magic_model(delta=0.0, period=2.0 * math.pi / omega)
        h = harmonic_decomposition(m, [PAULI_X, PAULI_Y], q_max=64)
        g = build_generator(h, [density, density], rel_tol=1e-10)
        closed = rate_perp_closed(omega, coupling, cutoff).eta
        assert eta_from_generator(g) == pytest.approx(closed, rel=1e-8)
    rng = np.random.default_rng(5)
    for x in rng.uniform(0.05, 30.0, 100):
        z = math.exp(-x)
        direct = 1.0 / (math.tanh(x) * math.sinh(x))
        resummed = 2.0 * z * (1.0 + z * z) / (1.0 - z * z) ** 2
        assert direct == pytest.approx(resummed, rel=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_04_propagator_matches_regularized_kicks():
    start = time.perf_counter()
    m = magic_model(delta=0.6, period=1.3)
    dec = decompose(m)
    spec = oracle.RegularizationSpec(pulse_width=1e-5 * m.period)
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 6.0 * m.period, 20):
        defect = scipy.linalg.norm(
            oracle.regularized_propagator(m, float(t), spec)
            - propagator(dec, float(t)),
            2,
        )
        assert defect <= 1e-4
    t_probe = 2.31 * m.period
    exact = propagator(dec, t_probe)
    widths = np.array([1e-3, 5e-4, 2.5e-4]) * m.period
    errors = [
        float(
            np.max(
                np.abs(
                    oracle.regularized_propagator(
                        m, t_probe, oracle.RegularizationSpec(pulse_width=float(eps))
                    )
                    - exact
                )
            )
        )
        for eps in widths
    ]
    slope = float(np.polyfit(np.log(widths), np.log(errors), 1)[0])
    assert 0.9 <= slope <= 1.1
    assert time.perf_counter() - start < 10.0


def test_criterion_05_harmonics_match_quadrature():
    start = time.perf_counter()
    for dim, seed in ((2, 7), (3, 8)):
        rng = np.random.default_rng(seed)
        m = KickedModel(
            h0=rand_herm(rng, dim) * 0.7,
            kick=rand_herm(rng, dim),
            strength=0.8,
            period=0.9,
        )
        coupling = rand_herm(rng, dim)
        h = harmonic_decomposition(m, [coupling], q_max=20)
        grid = oracle.quadrature_harmonics(m, coupling, q_max=20, n_samples=1 << 16)
        closed = np.stack(
            [
                sum(component(h, 0, float(w), q) for w in h.frequencies)
                for q in range(-20, 21)
            ]
        )
        np.testing.assert_allclose(closed, grid.coefficients[0], atol=1e-8)
    delta, period = 0.6, 1.3
    h = harmonic_decomposition(magic_model(delta, period), [PAULI_Z], q_max=6)
    phi1, phi2 = analytic_floquet_pair(delta, period)
    for q in range(-5, 6):
        up = component(h, 0, math.pi / period, q, basis="original")
        value = phi1.conj() @ up @ phi2
        assert value == pytest.approx(2j / (math.pi * (2 * q + 1)), abs=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_06_cptp_property_suite(longitudinal, transverse):
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    for fixture in (longitudinal, transverse):
        g = fixture.generator
        for t in rng.uniform(0.0, 5.0 / fixture.eta, 20):
            report = verify_cptp(semigroup(g, float(t)))
            assert report.passed
            assert report.trace_defect <= 1e-10
            assert report.choi_min_eig >= -1e-10
        in_basis = g.floquet_superop()
        for population in (0, 3):
            for coherence in (1, 2):
                assert abs(in_basis[population, coherence]) < 1e-12
                assert abs(in_basis[coherence, population]) < 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_07_closed_form_trajectories_match_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(17)

    # Dephasing coupling.  Truncation far below the comparison tolerance
    # so the residual rate defect cannot leak into long-time entries.
    t2, tau_c, period, delta = 2.0, 3.0, 1.3, 0.6
    m = magic_model(delta=delta, period=period)
    h = harmonic_decomposition(m, [PAULI_Z / math.sqrt(2)], q_max=64)
    g = build_generator(h, [Lorentzian(t2=t2, tau_c=tau_c)], rel_tol=1e-12)
    eta = rate_parallel_closed(period, t2, tau_c).eta
    omega_ext = 4.4
    p = TLSParams(omega0=omega_ext + delta, omega_ext=omega_ext, period=period, eta=eta)
    rho0 = rand_density(rng, 2)
    times = np.unique(rng.uniform(0.0, 5.0 / eta, 200))
    traj = evolve(m, g, rho0, times, frame="lab", omega_ext=omega_ext)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(
            state, closed_form_parallel(p, rho0, float(t)), atol=1e-10
        )

    # Transverse coupling on resonance.
    omega0 = 2.2
    mp = magic_model(delta=0.0, period=math.pi)
    hp = harmonic_decomposition(mp, [PAULI_X, PAULI_Y], q_max=64)
    density = PhononCutoff(coupling=0.8, cutoff=1.0)
    gp = build_generator(hp, [density, density], rel_tol=1e-13)
    eta_perp = rate_perp_closed(2.0, 0.8, 1.0).eta
    pp = TLSParams(omega0=omega0, omega_ext=omega0, period=math.pi, eta=eta_perp)
    rho0p = rand_density(rng, 2)
    times_p = np.unique(rng.uniform(0.0, 5.0 / eta_perp, 200))
    traj_p = evolve(mp, gp, rho0p, times_p, frame="lab", omega_ext=omega0)
    for t, state in zip(traj_p.times, traj_p.states):
        np.testing.assert_allclose(
            state, closed_form_perp(pp, rho0p, float(t)), atol=1e-10
        )

    # Engine against the stepped integrator, out to five decay times.
    rho0 = np.array([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]], dtype=complex)
    for horizon in (1.0, 2.5, 5.0):
        t = horizon / eta
        engine = evolve(m, g, rho0, [t], frame="interaction").states[0]
        stepped = oracle.integrate_master_equation(g, rho0, t, dt=2e-4 / eta)
        np.testing.assert_allclose(engine, stepped, atol=1e-6)
    assert time.perf_counter() - start < 30.0


def test_criterion_08_echo_refocusing():
    start = time.perf_counter()
    p = TLSParams(omega0=4.4, omega_ext=4.4, period=1.3, eta=0.05)
    ensembles = (
        GaussianDetuning(sigma=2.3),
        UniformDetuning(halfwidth=1.8),
        DiscreteDetuning(deltas=[-1.1, 0.4, 2.0], weights=[0.3, 0.45, 0.25]),
    )
    for ensemble in ensembles:
        for n in range(21):
            t = (n + 0.5) * p.period
            cos_phi, sin_phi = averaged_phase(ensemble, p, t)
            assert cos_phi == pytest.approx(math.cos(p.omega_ext * t), abs=1e-12)
            assert sin_phi == pytest.approx(math.sin(p.omega_ext * t), abs=1e-12)

    # Sampled check: a million draws, compared at three times including
    # one echo mark where the ensemble variance collapses to zero.
    sampled = GaussianDetuning(sigma=2.3, seed=11)
    deltas = sampled.sample(1_000_000)
    for t in (0.3 * p.period, 1.7 * p.period, 3.5 * p.period):
        frac = (t / p.period) % 1.0
        u = p.period * (frac - 0.5)
        phases = p.omega_ext * t + deltas * u
        for exact, draws in zip(
            averaged_phase(sampled, p, t), (np.cos(phases), np.sin(phases))
        ):
            sem = float(np.std(draws)) / math.sqrt(len(deltas))
            assert abs(exact - float(np.mean(draws))) <= 3.0 * sem + 1e-12
    assert time.perf_counter() - start < 60.0


def test_criterion_09_tau_c_round_trip():
    start = time.perf_counter()
    t_fast = 0.37
    for tau_c in t_fast * np.geomspace(0.1, 10.0, 5):
        for t2 in np.geomspace(0.5, 50.0, 5):
            eta_fast = rate_parallel_closed(t_fast, float(t2), float(tau_c)).eta
            result = extract_tau_c(1.0 / float(t2), eta_fast, t_fast)
            assert result.t2 == pytest.approx(float(t2), rel=1e-9)
            assert result.tau_c == pytest.approx(float(tau_c), rel=1e-9)
            assert not result.degenerate

    rng = np.random.default_rng(101)
    t2 = tau_c = t_fast = 1.0
    eta_slow = 1.0 / t2
    eta_fast = rate_parallel_closed(t_fast, t2, tau_c).eta
    errors = []
    for _ in range(100):
        noisy_slow = eta_slow * (1.0 + 0.01 * rng.standard_normal())
        noisy_fast = eta_fast * (1.0 + 0.01 * rng.standard_normal())
        result = extract_tau_c(noisy_slow, noisy_fast, t_fast)
        errors.append(abs(result.tau_c / tau_c - 1.0))
    assert float(np.median(errors)) < 0.05
    assert time.perf_counter() - start < 10.0


def _write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="ascii")
    return path


def _data_rows(path):
    rows = [
        line.split("\t")
        for line in path.read_text(encoding="ascii").splitlines()
        if not line.startswith("#")
    ]
    return np.array([[float(cell) for cell in row] for row in rows])


def test_criterion_10_cli_reproduces_figure_style_tables(tmp_path):
    start = time.perf_counter()

    # Dephasing-rate crossover: the kicked rate starts below the bare
    # density, falls strictly, and overtakes it once at high frequency.
    parallel = _write_config(
        tmp_path,
        "parallel.ini",
        """
        [run]
        schema_version = 1
        scenario = rates-parallel
        output = parallel.tsv

        [model]
        t2 = 1.0
        tau_c = 1.0

        [sweep]
        parameter = omega
        start = 0.5
        stop = 100.0
        points = 60
        spacing = log
        """,
    )
    out = cli.run(parallel)
    first_bytes = out.read_bytes()
    table = _data_rows(out)
    eta, gamma = table[:, 2], table[:, 3]
    assert np.all(np.diff(eta) < 0.0)
    assert eta[-1] < 1e-3 * eta[0]
    signs = np.sign(eta - gamma)
    flips = np.nonzero(np.diff(signs))[0]
    assert signs[0] < 0 and signs[-1] > 0
    assert len(flips) == 1

    # Deterministic output: a rerun reproduces the table byte for byte.
    assert cli.run(parallel).read_bytes() == first_bytes

    # Transverse crossover: suppressed both in the deep quantum limit and
    # beyond the cutoff, with the upper crossing near six cutoffs.
    perp = _write_config(
        tmp_path,
        "perp.ini",
        """
        [run]
        schema_version = 1
        scenario = rates-perp
        output = perp.tsv

        [model]
        coupling = 1.0
        cutoff = 1.0

        [sweep]
        parameter = omega
        start = 0.2
        stop = 12.0
        points = 80
        spacing = log
        """,
    )
    table = _data_rows(cli.run(perp))
    omega, eta, gamma = table.T
    signs = np.sign(eta - gamma)
    flips = np.nonzero(np.diff(signs))[0]
    assert signs[0] > 0 and signs[-1] > 0
    assert len(flips) == 2
    assert 5.0 < omega[flips[1]] < 7.0

    # Trajectory family: longitudinal component flips sign with each kick
    # while decaying at the closed-form rate.
    eta_frozen = 0.08243760338429877
    assert rate_parallel_closed(1.5, 6.5e-3, 18.7).eta == pytest.approx(
        eta_frozen, rel=1e-14
    )
    trajectory = _write_config(
        tmp_path,
        "trajectory.ini",
        """
        [run]
        schema_version = 1
        scenario = trajectory
        output = trajectory.tsv

        [model]
        t2 = 6.5e-3
        tau_c = 18.7
        period = 1.5
        delta = 0.6
        omega0 = 5.0

        [sweep]
        parameter = time
        start = 0.0
        stop = 30.0
        points = 61
        spacing = linear
        """,
    )
    table = _data_rows(cli.run(trajectory))
    for t, _, _, x3 in table:
        kicks, _ = floor_frac(float(t), 1.5)
        expected = (-1.0) ** kicks * math.exp(-eta_frozen * float(t))
        assert x3 == pytest.approx(expected, abs=1e-6)

    # Companion family: on resonance the transverse magnitude decays at
    # twice the rate, independent of the frame's rotation.
    transverse = _write_config(
        tmp_path,
        "transverse.ini",
        """
        [run]
        schema_version = 1
        scenario = trajectory
        output = transverse.tsv

        [model]
        t2 = 6.5e-3
        tau_c = 18.7
        period = 1.5
        delta = 0.0
        omega0 = 2.2
        x1_0 = 1.0
        x3_0 = 0.0

        [sweep]
        parameter = time
        start = 0.0
        stop = 30.0
        points = 61
        spacing = linear
        """,
    )
    table = _data_rows(cli.run(transverse))
    for t, x1, x2, _ in table:
        assert math.hypot(x1, x2) == pytest.approx(
            math.exp(-2.0 * eta_frozen * float(t)), abs=1e-6
        )
    assert time.perf_counter() - start < 60.0
