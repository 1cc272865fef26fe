"""Brute-force validator tests: the oracles must stand on their own."""

import math

import numpy as np
import pytest
from conftest import analytic_floquet_pair, component, magic_model, rand_herm

from floqlind.errors import StabilityError
from floqlind.floquet import KickedModel, decompose, floquet_operator, propagator
from floqlind.lindblad import (
    LindbladGenerator,
    TruncationInfo,
    rate_parallel_closed,
    semigroup,
)
from floqlind.operators import PAULI_Z, bloch_from_density, expm_hermitian
from floqlind.oracle import (
    RegularizationSpec,
    integrate_master_equation,
    quadrature_harmonics,
    regularized_propagator,
    series_rate_parallel,
)

# ------------------------------------------------------- smoothed-kick oracle


def test_regularization_spec_validation():
    with pytest.raises(ValueError):
        RegularizationSpec(pulse_width=0.0)
    with pytest.raises(ValueError):
        RegularizationSpec(pulse_width=1e-5, steps_per_pulse=5)
    with pytest.raises(ValueError):
        RegularizationSpec(pulse_width=1e-5, steps_per_free_segment=50)


def test_regularized_propagator_rejects_coarse_pulses():
    m = magic_model(period=1.0)
    with pytest.raises(ValueError):
        regularized_propagator(m, 0.5, RegularizationSpec(pulse_width=0.02))
    with pytest.raises(ValueError):
        regularized_propagator(m, -0.1, RegularizationSpec(pulse_width=1e-5))


def test_regularized_propagator_without_kicks_is_free_evolution():
    rng = np.random.default_rng(2)
    h0 = rand_herm(rng, 2)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 2), strength=0.0, period=1.0)
    spec = RegularizationSpec(pulse_width=1e-5)
    for t in (0.0, 0.4, 1.0, 2.3):
        np.testing.assert_allclose(
            regularized_propagator(m, t, spec), expm_hermitian(h0, -t), atol=1e-12
        )


def test_regularized_propagator_approaches_the_kicked_map():
    m = magic_model(delta=0.6, period=1.3)
    spec = RegularizationSpec(pulse_width=1e-5 * m.period)
    np.testing.assert_allclose(
        regularized_propagator(m, m.period, spec),
        floquet_operator(m),
        atol=1e-4,
    )


def test_regularized_propagator_error_is_first_order_in_the_width():
    m = magic_model(delta=0.6, period=1.3)
    dec = decompose(m)
    t = 2.31 * m.period
    exact = propagator(dec, t)
    widths = np.array([1e-3, 5e-4, 2.5e-4]) * m.period
    errors = []
    for eps in widths:
        spec = RegularizationSpec(pulse_width=float(eps))
        errors.append(
            float(np.max(np.abs(regularized_propagator(m, t, spec) - exact)))
        )
    slope = np.polyfit(np.log(widths), np.log(errors), 1)[0]
    assert 0.9 <= slope <= 1.1


# ------------------------------------------------------- quadrature harmonics


def test_quadrature_needs_enough_samples():
    m = magic_model()
    with pytest.raises(ValueError):
        quadrature_harmonics(m, PAULI_Z, q_max=10, n_samples=64)


def test_quadrature_without_kicks_is_static():
    rng = np.random.default_rng(8)
    h0 = rand_herm(rng, 3) * 0.4
    coupling = rand_herm(rng, 3)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=0.0, period=1.0)
    grid = quadrature_harmonics(m, coupling, q_max=3, n_samples=1 << 12)
    v = grid.decomposition.basis
    layers = grid.coefficients[0]
    np.testing.assert_allclose(layers[3], v.conj().T @ coupling @ v, atol=1e-10)
    for q in (-3, -2, -1, 1, 2, 3):
        assert np.max(np.abs(layers[q + 3])) < 1e-10


def test_quadrature_reproduces_the_known_dephasing_dyad():
    delta, period = 0.6, 1.3
    m = magic_model(delta, period)
    grid = quadrature_harmonics(m, PAULI_Z, q_max=3, n_samples=1 << 14)
    phi1, phi2 = analytic_floquet_pair(delta, period)
    mat = component(grid, 0, math.pi / period, 3, basis="original")
    assert phi1.conj() @ mat @ phi2 == pytest.approx(2j / (7 * math.pi), abs=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_quadrature_second_order_convergence(dim):
    rng = np.random.default_rng(dim)
    m = KickedModel(
        h0=rand_herm(rng, dim),
        kick=rand_herm(rng, dim),
        strength=0.8,
        period=0.9,
    )
    coupling = rand_herm(rng, dim)
    fine = quadrature_harmonics(m, coupling, q_max=2, n_samples=1 << 16)
    errors = []
    for n in (1 << 8, 1 << 9, 1 << 10):
        coarse = quadrature_harmonics(m, coupling, q_max=2, n_samples=n)
        errors.append(
            float(np.max(np.abs(coarse.coefficients - fine.coefficients)))
        )
    first, second = errors[0] / errors[1], errors[1] / errors[2]
    assert 3.0 < first < 5.0
    assert 3.0 < second < 5.0


# ------------------------------------------------------------- RK4 integrator


def _zero_generator(dim: int = 2) -> LindbladGenerator:
    return LindbladGenerator(
        dim=dim,
        superop=np.zeros((dim * dim, dim * dim), dtype=complex),
        truncation=TruncationInfo(q_max_used=1, tail_bound=0.0),
        basis=np.eye(dim, dtype=complex),
    )


def test_integrator_validation():
    g = _zero_generator()
    rho0 = np.eye(2) / 2
    with pytest.raises(ValueError):
        integrate_master_equation(g, rho0, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_master_equation(g, rho0, -1.0, dt=0.1)


def test_integrator_keeps_stationary_states_put():
    g = _zero_generator()
    rho0 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    out = integrate_master_equation(g, rho0, 3.0, dt=0.25)
    np.testing.assert_allclose(out, rho0, atol=1e-14)


def test_integrator_refuses_unstable_steps(longitudinal):
    rho0 = np.eye(2) / 2
    with pytest.raises(StabilityError):
        integrate_master_equation(
            longitudinal.generator, rho0, 1.0, dt=1.0 / longitudinal.eta
        )


def test_integrator_matches_the_known_decay(longitudinal):
    eta = longitudinal.eta
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = integrate_master_equation(
        longitudinal.generator, rho0, 1.0 / eta, dt=1e-4 / eta
    )
    x = bloch_from_density(out)
    assert x[2] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(out).imag) < 1e-12


def test_integrator_matches_the_semigroup(longitudinal):
    eta = longitudinal.eta
    rng = np.random.default_rng(4)
    rho0 = np.eye(2) / 2 + 0.3 * rand_herm(rng, 2) / np.linalg.norm(
        rand_herm(rng, 2), 2
    )
    rho0 = rho0 / np.trace(rho0).real
    t = 0.8 / eta
    stepped = integrate_master_equation(
        longitudinal.generator, rho0, t, dt=1e-4 / eta
    )
    from floqlind.operators import unvec, vec

    exact = unvec(semigroup(longitudinal.generator, t) @ vec(rho0))
    np.testing.assert_allclose(stepped, exact, atol=1e-10)


def test_integrator_is_fourth_order(longitudinal):
    eta = longitudinal.eta
    rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
    t = 1.0 / eta
    from floqlind.operators import unvec, vec

    exact = unvec(semigroup(longitudinal.generator, t) @ vec(rho0))

    def error(steps: int) -> float:
        out = integrate_master_equation(
            longitudinal.generator, rho0, t, dt=t / steps
        )
        return float(np.max(np.abs(out - exact)))

    ratio = error(400) / error(800)
    assert 12.0 < ratio < 20.0


# ------------------------------------------------------------- series summing


def test_series_validation():
    with pytest.raises(ValueError):
        series_rate_parallel(period=0.0, t2=1.0, tau_c=1.0)
    with pytest.raises(ValueError):
        series_rate_parallel(period=1.0, t2=1.0, tau_c=1.0, q_max=-1)


def test_series_lowest_harmonic_already_lands_close():
    closed = rate_parallel_closed(period=1.0, t2=1.0, tau_c=1.0).eta
    single = series_rate_parallel(period=1.0, t2=1.0, tau_c=1.0, q_max=0)
    assert abs(single.eta - closed) / closed < 0.2


def test_series_brackets_the_closed_form():
    closed = rate_parallel_closed(period=1.3, t2=2.0, tau_c=0.7).eta
    s = series_rate_parallel(period=1.3, t2=2.0, tau_c=0.7, q_max=50)
    assert s.eta <= closed <= s.eta + s.tail_bound + 1e-15


@pytest.mark.parametrize(
    "period,t2,tau_c",
    [(1.0, 2.0, 1.0), (0.1, 1.0, 0.5), (5.0, 3.0, 2.0)],
)
def test_series_with_many_harmonics_matches_closed_form(period, t2, tau_c):
    closed = rate_parallel_closed(period, t2, tau_c).eta
    s = series_rate_parallel(period, t2, tau_c, q_max=1000)
    assert s.eta == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_series_adaptive_truncation_meets_its_tolerance(ratio):
    tau_c = 0.7
    period = ratio * tau_c
    closed = rate_parallel_closed(period, 1.9, tau_c).eta
    s = series_rate_parallel(period, 1.9, tau_c, rel_tol=1e-10)
    assert s.eta == pytest.approx(closed, rel=1e-9)
    assert s.tail_bound <= 1e-10 * s.eta


def test_series_flat_bath_limit():
    """A bath flat across all harmonics halves into the closed-form limit."""
    s = series_rate_parallel(period=1.0, t2=2.0, tau_c=1e-15, q_max=10_000)
    assert s.eta * 2.0 == pytest.approx(1.0, abs=1e-4)
