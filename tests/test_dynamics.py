"""Trajectory engine and closed-form solution tests."""

import math

import numpy as np
import pytest
from conftest import (
    LONGITUDINAL,
    eta_from_generator,
    magic_model,
    rand_density,
    t1_time,
    t2_prime,
)

from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import (
    TLSParams,
    Trajectory,
    closed_form_parallel,
    closed_form_perp,
    evolve,
)
from floqlind.errors import (
    DomainError,
    UnsupportedFrameError,
    UnsupportedRegimeError,
)
from floqlind.floquet import KickedModel, harmonic_decomposition, propagator
from floqlind.lindblad import (
    LindbladGenerator,
    TruncationInfo,
    build_generator,
    rate_parallel_closed,
)
from floqlind.operators import PAULI_Z, bloch_from_density
from floqlind.oracle import integrate_master_equation


def _params(fixture, omega_ext, omega0=None):
    if omega0 is None:
        omega0 = omega_ext + getattr(fixture, "delta", 0.0)
    return TLSParams(
        omega0=omega0,
        omega_ext=omega_ext,
        period=fixture.period,
        eta=eta_from_generator(fixture.generator),
    )


def _sample_times(rng, period, count, horizon=12.0):
    times = rng.uniform(0.0, horizon * period, count)
    times = np.concatenate([times, [period, 2 * period, 5 * period]])
    return np.unique(times)


# ------------------------------------------------------------- plumbing


def test_params_validation():
    p = TLSParams(omega0=5.0, omega_ext=4.4, period=1.3, eta=0.01)
    assert p.delta == pytest.approx(0.6)
    with pytest.raises(ValueError):
        TLSParams(omega0=1.0, omega_ext=1.0, period=0.0, eta=0.1)
    with pytest.raises(ValueError):
        TLSParams(omega0=1.0, omega_ext=1.0, period=1.0, eta=-0.1)


def test_trajectory_requires_increasing_times():
    states = np.stack([np.eye(2, dtype=complex) / 2] * 2)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([1.0, 1.0]), states=states, frame="rotating")


def test_evolve_argument_errors(longitudinal):
    m, g = longitudinal.model, longitudinal.generator
    rho0 = np.eye(2) / 2
    with pytest.raises(ValueError):
        evolve(m, g, rho0, [0.0, 1.0], frame="heliocentric")
    with pytest.raises(ValueError):
        evolve(m, g, rho0, [0.0, 1.0], frame="lab")
    with pytest.raises(DomainError):
        evolve(m, g, rho0, [-1.0, 1.0])
    for frame in ("interaction", "rotating"):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                evolve(m, g, rho0, [0.0, bad], frame=frame)


def test_lab_frame_needs_a_two_level_system():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    h0 = (a + a.T) / 2
    m = KickedModel(h0=h0.astype(complex), kick=np.eye(3, dtype=complex),
                    strength=0.3, period=1.0)
    g = LindbladGenerator(
        dim=3,
        superop=np.zeros((9, 9), dtype=complex),
        truncation=TruncationInfo(q_max_used=1, tail_bound=0.0),
        basis=np.eye(3, dtype=complex),
    )
    with pytest.raises(UnsupportedFrameError):
        evolve(m, g, np.eye(3) / 3, [0.0, 1.0], frame="lab", omega_ext=1.0)


# ------------------------------------------------- engine vs closed forms


def test_maximally_mixed_state_is_stationary_in_every_frame(longitudinal):
    m, g = longitudinal.model, longitudinal.generator
    rho0 = np.eye(2, dtype=complex) / 2
    times = np.linspace(0.0, 8.0, 9)
    for frame in ("interaction", "rotating", "lab"):
        traj = evolve(m, g, rho0, times, frame=frame, omega_ext=4.4)
        for state in traj.states:
            np.testing.assert_allclose(state, rho0, atol=1e-12)


def test_engine_matches_dephasing_closed_form(longitudinal):
    rng = np.random.default_rng(42)
    m, g = longitudinal.model, longitudinal.generator
    omega_ext = 4.4
    p = _params(longitudinal, omega_ext)
    rho0 = rand_density(rng, 2)
    times = _sample_times(rng, p.period, 200)
    traj = evolve(m, g, rho0, times, frame="lab", omega_ext=omega_ext)
    for t, state in zip(traj.times, traj.states):
        expected = closed_form_parallel(p, rho0, float(t))
        np.testing.assert_allclose(state, expected, atol=1e-11)


def test_lab_frame_stays_exact_a_million_time_units_out():
    # A slow bath keeps the state far from the fixed point at t = 1e6,
    # where a propagator drifting from unitarity trips the 1e-12 trace guard.
    m = magic_model(LONGITUDINAL.delta, LONGITUDINAL.period)
    h = harmonic_decomposition(m, [PAULI_Z / math.sqrt(2.0)], q_max=64)
    density = Lorentzian(t2=1e9, tau_c=LONGITUDINAL.tau_c)
    g = build_generator(h, (density,), rel_tol=1e-10)
    omega_ext, t = 4.4, 1e6
    p = TLSParams(
        omega0=omega_ext + LONGITUDINAL.delta,
        omega_ext=omega_ext,
        period=LONGITUDINAL.period,
        eta=eta_from_generator(g),
    )
    rho0 = np.array([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]], dtype=complex)
    state = evolve(m, g, rho0, [t], frame="lab", omega_ext=omega_ext).states[0]
    np.testing.assert_allclose(
        state, closed_form_parallel(p, rho0, t), rtol=0.0, atol=1e-9
    )


def test_engine_matches_transverse_closed_form(transverse):
    rng = np.random.default_rng(43)
    m, g = transverse.model, transverse.generator
    omega0 = 2.2
    p = _params(transverse, omega0, omega0=omega0)
    rho0 = rand_density(rng, 2)
    times = _sample_times(rng, p.period, 100)
    traj = evolve(m, g, rho0, times, frame="lab", omega_ext=omega0)
    for t, state in zip(traj.times, traj.states):
        expected = closed_form_perp(p, rho0, float(t))
        np.testing.assert_allclose(state, expected, atol=1e-11)


def test_engine_matches_brute_force_integration(longitudinal):
    g = longitudinal.generator
    eta = longitudinal.eta
    rho0 = np.array([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]], dtype=complex)
    for horizon in (0.7, 2.3, 5.0):
        t = horizon / eta
        traj = evolve(
            longitudinal.model, g, rho0, [t], frame="interaction"
        )
        stepped = integrate_master_equation(g, rho0, t, dt=2e-4 / eta)
        np.testing.assert_allclose(traj.states[0], stepped, atol=1e-6)


def test_frames_are_unitarily_related(longitudinal):
    rng = np.random.default_rng(44)
    m, g = longitudinal.model, longitudinal.generator
    rho0 = rand_density(rng, 2)
    omega_ext = 4.4
    times = np.sort(rng.uniform(0.0, 10.0, 25))
    interaction = evolve(m, g, rho0, times, frame="interaction")
    rotating = evolve(m, g, rho0, times, frame="rotating")
    lab = evolve(m, g, rho0, times, frame="lab", omega_ext=omega_ext)
    for i, t in enumerate(times):
        u = propagator(m, float(t))
        dressed = u @ interaction.states[i] @ u.conj().T
        np.testing.assert_allclose(rotating.states[i], dressed, atol=1e-12)
        half = 0.5 * omega_ext * float(t)
        carrier = np.diag([np.exp(-1j * half), np.exp(1j * half)])
        np.testing.assert_allclose(
            lab.states[i], carrier @ dressed @ carrier.conj().T, atol=1e-12
        )


# --------------------------------------------------------- physical checks


def test_purity_and_bloch_norm_never_grow(longitudinal):
    rng = np.random.default_rng(45)
    m, g = longitudinal.model, longitudinal.generator
    rho0 = rand_density(rng, 2)
    times = np.linspace(0.0, 3.0 / longitudinal.eta, 40)
    traj = evolve(m, g, rho0, times, frame="rotating")
    purities = [float(np.trace(s @ s).real) for s in traj.states]
    assert all(a >= b - 1e-12 for a, b in zip(purities, purities[1:]))
    norms = np.linalg.norm(traj.bloch(), axis=1)
    assert np.all(norms <= norms[0] + 1e-12)


def test_states_stay_positive_semidefinite(longitudinal):
    rng = np.random.default_rng(46)
    m, g = longitudinal.model, longitudinal.generator
    traj = evolve(
        m, g, rand_density(rng, 2), np.linspace(0.0, 50.0, 30), frame="rotating"
    )
    for state in traj.states:
        eigs = np.linalg.eigvalsh(state)
        assert eigs[0] >= -1e-12
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)


def test_longitudinal_component_decays_at_exactly_the_closed_rate(longitudinal):
    m, g = longitudinal.model, longitudinal.generator
    eta = eta_from_generator(g)
    rho0 = np.array([[0.9, 0.0], [0.0, 0.1]], dtype=complex)
    times = np.linspace(0.0, 2.0 / eta, 15)
    traj = evolve(m, g, rho0, times, frame="interaction")
    x3 = traj.bloch()[:, 2]
    np.testing.assert_allclose(x3, 0.8 * np.exp(-eta * times), atol=1e-10)


def test_kick_freezing_and_its_absence():
    t2, tau_c = 1.0, 0.1
    frozen_eta = rate_parallel_closed(0.002, t2, tau_c).eta
    p_frozen = TLSParams(omega0=1.0, omega_ext=1.0, period=0.002, eta=frozen_eta)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    x3 = bloch_from_density(closed_form_parallel(p_frozen, rho0, t2))[2]
    assert abs(x3) >= 0.99

    rare_eta = rate_parallel_closed(5.0, t2, tau_c).eta
    assert rare_eta == pytest.approx(0.96, rel=1e-10)
    p_rare = TLSParams(omega0=1.0, omega_ext=1.0, period=5.0, eta=rare_eta)
    x3 = bloch_from_density(closed_form_parallel(p_rare, rho0, t2))[2]
    assert x3 == pytest.approx(math.exp(-0.96), rel=1e-10)


def test_left_limits_differ_only_at_kicks(longitudinal):
    m, g = longitudinal.model, longitudinal.generator
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    period = longitudinal.period
    times = np.array([2.5 * period, 3 * period])
    traj = evolve(m, g, rho0, times, frame="rotating", emit_left_limits=True)
    np.testing.assert_array_equal(traj.left_states[0], traj.states[0])
    jump = float(np.max(np.abs(traj.left_states[1] - traj.states[1])))
    assert jump > 0.5


# ------------------------------------------------------------ closed forms


def test_dephasing_closed_form_pins():
    p = TLSParams(omega0=5.0, omega_ext=4.4, period=1.3, eta=0.05)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(closed_form_parallel(p, rho0, 0.0), rho0, atol=1e-14)
    for t in (0.4, 1.9, 7.3):
        n = math.floor(t / p.period)
        x = bloch_from_density(closed_form_parallel(p, rho0, t))
        assert x[0] == pytest.approx(0.0, abs=1e-14)
        assert x[1] == pytest.approx(0.0, abs=1e-14)
        assert x[2] == pytest.approx((-1.0) ** n * math.exp(-p.eta * t), rel=1e-12)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            closed_form_parallel(p, rho0, bad)


def test_dephasing_closed_form_reproduces_any_initial_state_at_zero():
    rng = np.random.default_rng(47)
    p = TLSParams(omega0=5.0, omega_ext=4.4, period=1.3, eta=0.05)
    for _ in range(5):
        rho0 = rand_density(rng, 2)
        np.testing.assert_allclose(
            closed_form_parallel(p, rho0, 0.0), rho0, atol=1e-13
        )


def test_transverse_closed_form_pins():
    p = TLSParams(omega0=2.2, omega_ext=2.2, period=math.pi, eta=0.03)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # +x
    for t in (0.7, 4.0):
        x = bloch_from_density(closed_form_perp(p, rho0, t))
        decay = math.exp(-2.0 * p.eta * t)
        assert x[0] == pytest.approx(decay * math.cos(2.2 * t), abs=1e-12)
        assert x[1] == pytest.approx(decay * math.sin(2.2 * t), abs=1e-12)
        assert x[2] == pytest.approx(0.0, abs=1e-14)
    mixed = np.eye(2, dtype=complex) / 2
    np.testing.assert_allclose(closed_form_perp(p, mixed, 3.3), mixed, atol=1e-14)
    with pytest.raises(DomainError):
        closed_form_perp(p, rho0, -1.0)


def test_transverse_closed_form_requires_resonance():
    p = TLSParams(omega0=2.2, omega_ext=2.0, period=math.pi, eta=0.03)
    with pytest.raises(UnsupportedRegimeError):
        closed_form_perp(p, np.eye(2) / 2, 1.0)


def test_closed_forms_coincide_on_resonance():
    rng = np.random.default_rng(48)
    p = TLSParams(omega0=3.1, omega_ext=3.1, period=0.9, eta=0.07)
    for _ in range(10):
        rho0 = rand_density(rng, 2)
        t = float(rng.uniform(0.0, 10.0))
        np.testing.assert_allclose(
            closed_form_parallel(p, rho0, t),
            closed_form_perp(p, rho0, t),
            atol=1e-13,
        )


# ------------------------------------------------------- relaxation times


def test_t1_zero_temperature_pin():
    density = PhononCutoff(coupling=1.0, cutoff=5.0)
    assert t1_time(density, 5.0, math.inf) == pytest.approx(
        math.e / 125.0, rel=1e-12
    )


def test_t1_infinite_temperature_doubles_the_rate():
    density = Lorentzian(t2=2.0, tau_c=1.0)
    gamma = density.evaluate(1.0)
    assert t1_time(density, 1.0, 0.0) == pytest.approx(1.0 / (2.0 * gamma))


def test_t1_with_no_resonant_modes_is_infinite():
    density = PhononCutoff(coupling=1.0, cutoff=5.0)
    assert math.isinf(t1_time(density, 0.0, math.inf))


def test_t2_prime_combinations():
    assert t2_prime(math.inf, 3.0) == pytest.approx(3.0)
    assert t2_prime(2.0, math.inf) == pytest.approx(4.0)
    assert t2_prime(1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert math.isinf(t2_prime(math.inf, math.inf))
    with pytest.raises(ValueError):
        t2_prime(-1.0, 1.0)
    with pytest.raises(ValueError):
        t2_prime(1.0, 0.0)
