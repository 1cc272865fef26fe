"""Trajectory engine and closed-form solution tests."""

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import (
    LONGITUDINAL,
    degenerate_model,
    eta_from_generator,
    magic_model,
    rand_density,
    rand_herm,
    reference_closed_form_parallel,
    reference_closed_form_perp,
    reference_evolve,
    t1_time,
    t2_prime,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlind import dynamics, floquet, operators

from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import (
    TLSParams,
    Trajectory,
    closed_form_parallel,
    closed_form_perp,
    evolve,
)
from floqlind.echo import GaussianDetuning, averaged_phase, echo_signal
from floqlind.errors import (
    DimensionError,
    DomainError,
    UnsupportedFrameError,
    UnsupportedRegimeError,
)
from floqlind.floquet import (
    KickedModel,
    harmonic_decomposition,
    propagator,
    propagator_left_limit,
)
from floqlind.lindblad import (
    BohrBlocks,
    build_generator,
    rate_parallel_closed,
    semigroup,
    verify_cptp,
)
from floqlind.operators import (
    PAULI_X, PAULI_Z, as_density, bloch_from_density, unvec, vec,
)
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
    # A non-finite parameter would give a NaN state, not an error.
    for field, value in [("omega0", math.nan), ("omega0", math.inf),
                         ("omega_ext", -math.inf), ("omega_ext", math.nan),
                         ("period", math.inf), ("period", math.nan),
                         ("eta", math.inf), ("eta", math.nan)]:
        values = dict(omega0=5.0, omega_ext=4.4, period=1.3, eta=0.01)
        with pytest.raises(ValueError, match=field):
            TLSParams(**values | {field: value})


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


@pytest.mark.parametrize("frame", ["interaction", "rotating", "lab"])
def test_evolve_of_rates_near_the_largest_double_raises_naming_t(frame):
    """The generator is finite, its largest entry 9.0e307, but e^(tL) rho0
    has NaN entries from t = 2.5e-269 on (finite at 1e-270): a
    FloatingPointError naming that t, as ``semigroup`` raises, not the
    ValueError ``as_densities`` raises for a user's non-finite matrix."""
    m = KickedModel(h0=np.zeros((2, 2)), kick=PAULI_X, strength=5e-324, period=1.0)
    harmonics = harmonic_decomposition(m, (PAULI_Z / math.sqrt(2.0),), q_max=64)
    g = build_generator(
        harmonics, (Lorentzian(t2=2.2250738585072014e-308, tau_c=1e19),),
        rel_tol=1e-8,
    )
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.array([0.0, 1e-290, 1e-270, 2.5e-269, 1e-268])
    with pytest.raises(FloatingPointError, match=re.escape("e^(tL) at t = 2.5e-269 ")):
        evolve(m, g, rho0, times, frame=frame, omega_ext=1.0)


def test_a_lab_frame_carrier_that_overflows_is_a_numeric_failure(longitudinal):
    """At omega_ext = 5 the carrier's angle omega_ext t / 2 passes the
    largest double between t = 5e307 and 7.5e307, while t/T stays finite,
    and at the largest omega_ext between t = 1 and 2.5:
    FloatingPointError naming that t, with no numpy warning, not the
    ValueError ``as_densities`` raises for a user's non-finite matrix."""
    m, g = longitudinal.model, longitudinal.generator
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0.0, 1e308, 5)
    for left in (False, True):
        with pytest.raises(FloatingPointError, match=re.escape("at t = 7.5e+307 ")):
            evolve(m, g, rho0, times, frame="lab", omega_ext=5.0,
                   emit_left_limits=left)
        with pytest.raises(FloatingPointError, match=re.escape("at t = 2.5 ")):
            evolve(m, g, rho0, [0.0, 1.0, 2.5], frame="lab",
                   omega_ext=1.7976931348623157e308, emit_left_limits=left)
    states = evolve(m, g, rho0, times[:3], frame="lab", omega_ext=5.0).states
    assert np.isfinite(states).all()


def test_a_kick_phase_that_overflows_is_a_numeric_failure():
    """Quasienergies +-3 at T = 1: the kicks' angle eps n T passes the
    largest double between t = 5e307 and 7.5e307 in the rotating frame."""
    m = KickedModel(h0=np.zeros((2, 2)), kick=PAULI_X, strength=3.0, period=1.0)
    harmonics = harmonic_decomposition(m, (PAULI_Z / math.sqrt(2.0),), q_max=64)
    g = build_generator(harmonics, (Lorentzian(t2=2.0, tau_c=3.0),))
    assert np.array_equal(np.abs(g.decomposition.quasienergies), [3.0, 3.0])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0.0, 1e308, 5)
    with pytest.raises(FloatingPointError, match=re.escape("at t = 7.5e+307 ")):
        evolve(m, g, rho0, times, frame="rotating")
    assert np.isfinite(evolve(m, g, rho0, times, frame="interaction").states).all()


def test_evolve_rejects_a_model_other_than_the_generators(longitudinal):
    """Even an equal copy: the state would be dressed with another U(t)."""
    m, g = longitudinal.model, longitudinal.generator
    twin = KickedModel(h0=m.h0.copy(), kick=m.kick.copy(), strength=m.strength,
                       period=m.period)
    for other in (twin, magic_model(0.0, m.period)):
        with pytest.raises(ValueError, match="not the model the generator"):
            evolve(other, g, np.eye(2) / 2, [0.0, 1.0], frame="interaction")


_TIME_ENTRY_POINTS = [
    "evolve-interaction", "evolve-rotating", "evolve-lab", "closed_form_parallel",
    "closed_form_perp", "echo_signal", "averaged_phase", "propagator",
    "propagator_left_limit", "floor_frac",
]


def _time_entry_point(name, transverse):
    """The entry point as a function of one time, returning an array."""
    m, g = transverse.model, transverse.generator
    p = TLSParams(omega0=4.4, omega_ext=4.4, period=m.period, eta=0.05)
    rho0, ensemble = np.eye(2) / 2, GaussianDetuning(sigma=1.0)
    if name.startswith("evolve-"):
        frame = name.removeprefix("evolve-")
        return lambda t: evolve(m, g, rho0, [t], frame=frame, omega_ext=4.4).states
    return {
        "closed_form_parallel": lambda t: closed_form_parallel(p, rho0, t),
        "closed_form_perp": lambda t: closed_form_perp(p, rho0, t),
        "echo_signal": lambda t: echo_signal(ensemble, p, (1.0, 0.0), [t]).transverse,
        "averaged_phase": lambda t: np.array(averaged_phase(ensemble, p, t)),
        "propagator": lambda t: floquet.propagator(g.decomposition, t),
        "propagator_left_limit": lambda t: floquet.propagator_left_limit(
            g.decomposition, t),
        "floor_frac": lambda t: np.array(floquet.floor_frac(t, m.period)),
    }[name]


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _TIME_ENTRY_POINTS)
def test_every_time_argument_meets_the_one_floor_frac_guard(transverse, name, bad):
    """-5e-324 / pi rounds to -0.0, so the guard must test t, not t/T."""
    at = _time_entry_point(name, transverse)
    message = f"time must be >= 0 with t/period finite, got t = {bad} at period"
    with pytest.raises(DomainError, match=re.escape(message)):
        at(bad)


@pytest.mark.parametrize("name", _TIME_ENTRY_POINTS)
def test_every_time_argument_accepts_both_zeros(transverse, name):
    at = _time_entry_point(name, transverse)
    assert np.array_equal(at(-0.0), at(0.0))


def test_one_decomposition_per_run(decompose_calls):
    m = magic_model(0.6, 1.3)
    h = harmonic_decomposition(m, [PAULI_Z / math.sqrt(2.0)], q_max=8)
    g = build_generator(h, (Lorentzian(t2=2.0, tau_c=3.0),))
    evolve(m, g, np.eye(2) / 2, np.linspace(0.0, 20.0, 41), frame="lab",
           omega_ext=4.4, emit_left_limits=True)
    assert g.decomposition is h.decomposition
    assert decompose_calls == [m]


def test_lab_frame_needs_a_two_level_system():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    h0 = (a + a.T) / 2
    m = KickedModel(h0=h0.astype(complex), kick=np.eye(3, dtype=complex),
                    strength=0.3, period=1.0)
    h = harmonic_decomposition(m, [np.zeros((3, 3))], q_max=1)
    g = build_generator(h, (Lorentzian(t2=1.0, tau_c=1.0),))
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
        u = propagator(floquet.decompose(m), float(t))
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


# ---------------------------------------------------- block semigroup


def test_evolve_rejects_bad_times_before_any_work(longitudinal, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("evolve propagated before checking its times")

    monkeypatch.setattr(BohrBlocks, "propagate", no_work)
    monkeypatch.setattr("floqlind.floquet.decompose", no_work)
    m, g = longitudinal.model, longitudinal.generator
    for bad in ([1.0, 1.0], [2.0, 1.0], [0.0, 3.0, 3.0], [[0.0, 1.0]], 1.0):
        with pytest.raises(ValueError, match="strictly increasing 1-D"):
            evolve(m, g, np.eye(2) / 2, bad, frame="lab", omega_ext=4.4)


def test_bloch_matches_the_per_state_map(longitudinal):
    rng = np.random.default_rng(47)
    m, g = longitudinal.model, longitudinal.generator
    times = np.sort(rng.uniform(0.0, 20.0, 50))
    traj = evolve(m, g, rand_density(rng, 2), times, frame="lab", omega_ext=4.4)
    expected = np.array([bloch_from_density(state) for state in traj.states])
    np.testing.assert_array_equal(traj.bloch(), expected)
    qutrits = Trajectory(
        times=np.array([0.0]), states=np.eye(3)[None] / 3, frame="rotating"
    )
    with pytest.raises(DimensionError, match=r"needs a qubit, got shape \(3, 3\)"):
        qutrits.bloch()
    broken = traj.states.copy()
    broken[3, 0, 1] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(times=times, states=broken, frame="lab").bloch()


def _random_generator(rng, dim, density, q_max=8, rel_tol=1e-8):
    m = KickedModel(
        h0=rand_herm(rng, dim), kick=rand_herm(rng, dim), strength=0.8, period=1.0
    )
    coupling = rand_herm(rng, dim)
    h = harmonic_decomposition(m, [coupling / np.linalg.norm(coupling)], q_max=q_max)
    return m, build_generator(h, (density,), rel_tol=rel_tol)


def _assert_matches_reference(m, g, rho0, times, **kwargs):
    traj = evolve(m, g, rho0, times, emit_left_limits=True, **kwargs)
    states, left_states = reference_evolve(
        m, g, rho0, times, emit_left_limits=True, **kwargs
    )
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(traj.left_states - left_states)) <= 1e-12


def test_evolve_matches_the_per_time_expm_reference(longitudinal, transverse):
    rng = np.random.default_rng(48)
    period = longitudinal.period
    kicks = period * np.arange(1, 6)
    times = np.unique(np.concatenate([[0.0], kicks, rng.uniform(0.0, 40.0, 60)]))
    for frame in ("interaction", "rotating", "lab"):
        _assert_matches_reference(
            longitudinal.model, longitudinal.generator, rand_density(rng, 2),
            times, frame=frame, omega_ext=4.4,
        )
    _assert_matches_reference(
        transverse.model, transverse.generator, rand_density(rng, 2), times
    )
    for dim in (3, 5):
        m, g = _random_generator(rng, dim, PhononCutoff(0.05, 1.0, beta=2.0))
        _assert_matches_reference(m, g, rand_density(rng, dim), times)


def _dressed_reference(dec, interaction, times, omega_ext=None):
    """(U rho_I U†, U_ rho_I U_†) per time, from ``propagator`` (U) and
    ``propagator_left_limit`` (U_); with ``omega_ext``, also the lab carrier."""
    states, left_states = [], []
    for t, rho in zip(np.asarray(times).tolist(), interaction):
        carrier = 1.0 if omega_ext is None else np.exp(
            -0.5j * omega_ext * t * np.array([[1.0], [-1.0]])
        )
        for u, out in ((propagator(dec, t), states),
                       (propagator_left_limit(dec, t), left_states)):
            u = carrier * u
            out.append(u @ rho @ u.conj().T)
    return np.array(states), np.array(left_states)


def _assert_dressed(m, g, rho0, times, frame, omega_ext=None):
    """evolve's states and left limits in ``frame`` are its interaction-frame
    states dressed by the propagator, within 1e-14."""
    interaction = evolve(m, g, rho0, times, frame="interaction").states
    traj = evolve(m, g, rho0, times, frame=frame, omega_ext=omega_ext,
                  emit_left_limits=True)
    states, left_states = _dressed_reference(g.decomposition, interaction, times,
                                             omega_ext)
    assert np.max(np.abs(traj.states - states)) <= 1e-14
    assert np.max(np.abs(traj.left_states - left_states)) <= 1e-14
    return traj


@pytest.mark.parametrize("dim", range(2, 9))
def test_evolve_is_the_interaction_frame_dressed_by_the_propagator(dim):
    """Random models at d = 2 to 8: the rotating frame (and at d = 2 the lab
    frame) is U rho_I U† and its left limits take U's left limit, at kicks,
    between them and 10^9 + 1/4 periods out; the interaction frame rho_I is
    V rho_F V† for the Floquet-basis state rho_F of the Bohr blocks."""
    rng = np.random.default_rng(70 + dim)
    m, g = _random_generator(rng, dim, Lorentzian(t2=2.0, tau_c=0.3))
    rho0 = rand_density(rng, dim)
    times = np.unique(np.concatenate([
        m.period * np.arange(6.0), rng.uniform(0.0, 6.0 * m.period, 12),
        [(1e9 + 0.25) * m.period],
    ]))
    v = g.decomposition.basis
    x0 = vec(v.conj().T @ as_density(rho0) @ v)[:, None]
    floquet_states = g.blocks.propagate(x0, times)[..., 0]
    interaction = evolve(m, g, rho0, times, frame="interaction").states
    expected = np.array([v @ unvec(x) @ v.conj().T for x in floquet_states])
    assert np.max(np.abs(interaction - expected)) <= 1e-14
    _assert_dressed(m, g, rho0, times, "rotating")
    if dim == 2:
        _assert_dressed(m, g, rho0, times, "lab", omega_ext=4.4)


@pytest.mark.parametrize("frame, omega_ext", [("rotating", None), ("lab", 4.4)])
def test_left_limits_where_no_time_or_every_time_is_a_kick(longitudinal, frame,
                                                          omega_ext):
    m, g = longitudinal.model, longitudinal.generator
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    between = m.period * (np.arange(1.0, 41.0) + 0.37)
    traj = evolve(m, g, rho0, between, frame=frame, omega_ext=omega_ext,
                  emit_left_limits=True)
    np.testing.assert_array_equal(traj.left_states, traj.states)
    kicks = m.period * np.arange(1.0, 41.0)
    traj = _assert_dressed(m, g, rho0, kicks, frame, omega_ext)
    assert np.all(np.any(traj.left_states != traj.states, axis=(1, 2)))


@pytest.mark.parametrize("periods", [0.0, 3.0, 3.4])
def test_a_single_time_is_dressed_like_many(longitudinal, periods):
    """One time, at t = 0, at a kick and between kicks, in every frame."""
    m, g = longitudinal.model, longitudinal.generator
    rho0 = rand_density(np.random.default_rng(72), 2)
    t = [periods * m.period]
    traj = evolve(m, g, rho0, t, frame="interaction", emit_left_limits=True)
    assert traj.states.shape == (1, 2, 2)
    np.testing.assert_array_equal(traj.left_states, traj.states)
    for frame, omega_ext in (("rotating", None), ("lab", 4.4)):
        traj = _assert_dressed(m, g, rho0, t, frame, omega_ext)
        assert traj.states.shape == traj.left_states.shape == (1, 2, 2)


def test_degenerate_quasienergies_share_the_zero_frequency_block():
    rng = np.random.default_rng(49)
    m = degenerate_model(rng)
    coupling = rand_herm(rng, 3)
    h = harmonic_decomposition(m, [coupling], q_max=4)
    g = build_generator(h, (PhononCutoff(0.3, 1.0, beta=3.0),), rel_tol=1e-10)
    # The three populations and the two coherences of the degenerate pair.
    assert len(g.blocks.zeros) == 5
    rho0 = rand_density(rng, 3)
    _assert_matches_reference(m, g, rho0, np.linspace(0.0, 30.0, 31))
    far = [1e3, 1e6, 1e9 + 0.25]
    traj = evolve(m, g, rho0, far)
    assert np.max(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0)) <= 1e-14
    for t in far:
        assert verify_cptp(semigroup(g, t)).passed


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    bath=st.sampled_from(
        [Lorentzian(t2=2.0, tau_c=0.3), PhononCutoff(0.05, 1.0, beta=2.0)]
    ),
    periods=st.integers(0, 10**9),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_states_stay_valid_over_long_horizons(dim, seed, bath, periods, frac):
    rng = np.random.default_rng(seed)
    m, g = _random_generator(rng, dim, bath, rel_tol=1e-6)
    t = (periods + frac) * m.period
    times = np.unique([0.5 * t, t])
    traj = evolve(m, g, rand_density(rng, dim), times, emit_left_limits=True)
    for states in (traj.states, traj.left_states):
        trace = np.trace(states, axis1=1, axis2=2)
        assert np.max(np.abs(trace - 1.0)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(states)) >= -1e-12
    assert verify_cptp(semigroup(g, float(times[-1]))).passed


def test_evolve_makes_no_per_time_calls(longitudinal, monkeypatch):
    """Counted, not timed: no decompose (the generator carries its own), one
    state check on rho0, and no matrix exponential, propagator or kicked
    unitary (``floquet._unitary``) at all: the dressing is by phases."""
    counts = Counter()
    watched = {
        "expm_general": operators.expm_general,
        "as_density": operators.as_density,
        "decompose": floquet.decompose,
        "propagator": floquet.propagator,
        "propagator_left_limit": floquet.propagator_left_limit,
        "_unitary": floquet._unitary,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [
        mod for key, mod in sys.modules.items() if key.split(".")[0] == "floqlind"
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, fn in watched.items():
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(name, fn))
    m, g = longitudinal.model, longitudinal.generator
    kicks = longitudinal.period * np.arange(1, 41)
    times = np.unique(np.concatenate([np.linspace(0.0, 50.0, 1961), kicks]))
    assert len(times) == 2000
    traj = evolve(m, g, np.eye(2) / 2, times, frame="lab", omega_ext=4.4,
                  emit_left_limits=True)
    assert len(traj.states) == len(traj.left_states) == 2000
    assert counts["expm_general"] == 0
    assert counts["propagator"] == counts["propagator_left_limit"] == 0
    assert counts["_unitary"] == 0
    assert counts["decompose"] == 0
    assert counts["as_density"] <= 1


def test_evolve_splits_all_times_with_one_floor_frac_call(longitudinal, monkeypatch):
    """Counted, not timed: a per-time split would make 2000 calls."""
    calls = []

    def counted(t, period):
        calls.append(np.shape(t))
        return floquet.floor_frac(t, period)

    monkeypatch.setattr(dynamics, "floor_frac", counted)
    m, g = longitudinal.model, longitudinal.generator
    kicks = longitudinal.period * np.arange(1, 41)
    times = np.unique(np.concatenate([np.linspace(0.0, 50.0, 1961), kicks]))
    traj = evolve(m, g, np.eye(2) / 2, times, frame="lab", omega_ext=4.4,
                  emit_left_limits=True)
    assert len(traj.left_states) == len(times) == 2000
    assert calls == [(2000,)]


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


def test_dephasing_closed_form_takes_a_state_at_the_positivity_tolerance():
    """as_density takes a lowest eigenvalue down to -PSD_ATOL, whose Bloch
    vector is longer than 1; at t = 0 the closed form gives it back."""
    p = TLSParams(omega0=5.0, omega_ext=4.4, period=1.3, eta=0.05)
    rho0 = np.diag([1.0 + 5e-13, -5e-13]).astype(complex)
    np.testing.assert_allclose(closed_form_parallel(p, rho0, 0.0), rho0, atol=1e-15)


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


def test_closed_forms_match_their_scalar_references():
    """The closed forms multiply in the echo's order, not in these
    references', so states may differ by a few ulps, and by no more, at
    kicks, echoes and in between."""
    rng = np.random.default_rng(49)
    for _ in range(20):
        period, eta = rng.uniform(0.2, 1.2), rng.uniform(0.0, 0.5)
        omega_ext, delta = rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0)
        p = TLSParams(omega0=omega_ext + delta, omega_ext=omega_ext,
                      period=period, eta=eta)
        p0 = TLSParams(omega0=omega_ext, omega_ext=omega_ext, period=period, eta=eta)
        rho0 = rand_density(rng, 2)
        marks = period * np.arange(0.0, 12.0, 0.5)
        for t in np.concatenate([marks, rng.uniform(0.0, 12.0 * period, 12)]):
            t = float(t)
            np.testing.assert_allclose(
                closed_form_parallel(p, rho0, t),
                reference_closed_form_parallel(p, rho0, t), rtol=0.0, atol=1e-14,
            )
            np.testing.assert_allclose(
                closed_form_perp(p0, rho0, t),
                reference_closed_form_perp(p0, rho0, t), rtol=0.0, atol=1e-14,
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
