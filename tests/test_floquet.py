"""Floquet analysis tests: stroboscopic algebra, gauge, harmonics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    analytic_floquet_pair,
    component,
    frequency_label,
    magic_model,
    parseval_weight,
    rand_herm,
)

from floqlind import oracle
from floqlind.errors import DimensionError, DomainError, HermiticityError
from floqlind.floquet import (
    KickedModel,
    decompose,
    floor_frac,
    floquet_operator,
    harmonic_decomposition,
    propagator,
    propagator_left_limit,
    reconstruct_heisenberg,
)
from floqlind.operators import PAULI_Y, PAULI_Z, expm_general, expm_hermitian


def random_model(rng, dim=3, period=0.9, strength=0.7):
    return KickedModel(
        h0=rand_herm(rng, dim),
        kick=rand_herm(rng, dim),
        strength=strength,
        period=period,
    )


# ---------------------------------------------------------------- timing


def test_floor_frac_splits_time():
    n, frac = floor_frac(2.7 * 1.3, 1.3)
    assert n == 2
    assert frac == pytest.approx(0.7, abs=1e-12)
    assert floor_frac(0.0, 1.0) == (0, 0.0)


def test_floor_frac_snaps_to_kick_times():
    n, frac = floor_frac(3.0 - 1e-12, 1.0)
    assert (n, frac) == (3, 0.0)


# ---------------------------------------------------------- one period map


def test_kick_free_floquet_operator_is_free_evolution():
    rng = np.random.default_rng(3)
    h0 = rand_herm(rng, 3)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=0.0, period=1.7)
    np.testing.assert_allclose(
        floquet_operator(m), expm_hermitian(h0, -1.7), atol=1e-13
    )


def test_magic_kick_floquet_operator():
    delta, period = 0.6, 1.3
    m = magic_model(delta=delta, period=period)
    phase = np.exp(0.5j * delta * period)
    expected = -1j * np.array([[0.0, phase], [1.0 / phase, 0.0]])
    np.testing.assert_allclose(floquet_operator(m), expected, atol=1e-14)


def test_model_validation():
    rng = np.random.default_rng(0)
    herm = rand_herm(rng, 2)
    with pytest.raises(HermiticityError):
        KickedModel(h0=np.array([[0.0, 1.0], [0.0, 0.0]]), kick=herm,
                    strength=1.0, period=1.0)
    with pytest.raises(DimensionError):
        KickedModel(h0=herm, kick=np.eye(3), strength=1.0, period=1.0)
    with pytest.raises(ValueError):
        KickedModel(h0=herm, kick=herm, strength=1.0, period=0.0)
    with pytest.raises(ValueError):
        KickedModel(h0=herm, kick=herm, strength=math.nan, period=1.0)


# ------------------------------------------------------------ quasienergies


def test_magic_quasienergies_sit_at_half_zone():
    for delta in (0.0, 0.6, -1.1):
        dec = decompose(magic_model(delta=delta, period=1.3))
        expected = math.pi / (2 * 1.3)
        np.testing.assert_allclose(
            dec.quasienergies, [expected, -expected], atol=1e-12
        )


def test_quasienergy_folding_into_principal_zone():
    period = 1.0
    omega = 2 * math.pi / period
    a = omega / 2 + 0.1
    m = KickedModel(
        h0=np.diag([a, -a]).astype(complex),
        kick=np.zeros((2, 2), dtype=complex),
        strength=0.0,
        period=period,
    )
    dec = decompose(m)
    edge = omega / 2 - 0.1
    np.testing.assert_allclose(dec.quasienergies, [edge, -edge], atol=1e-12)


def test_quasienergies_stay_in_zone_and_descend():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        m = random_model(rng, dim=dim)
        dec = decompose(m)
        assert np.all(dec.quasienergies <= dec.model.omega / 2 + 1e-12)
        assert np.all(dec.quasienergies > -dec.model.omega / 2 - 1e-12)
        assert np.all(np.diff(dec.quasienergies) <= 1e-12)


def test_basis_is_unitary_and_gauge_fixed():
    rng = np.random.default_rng(21)
    for dim in (2, 4):
        dec = decompose(random_model(rng, dim=dim))
        v = dec.basis
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        for k in range(dim):
            pivot = int(np.argmax(np.abs(v[:, k])))
            assert v[pivot, k].real > 0.0
            assert abs(v[pivot, k].imag) < 1e-12


def test_averaged_hamiltonian_regenerates_floquet_operator():
    rng = np.random.default_rng(5)
    m = random_model(rng, dim=4, period=1.1)
    dec = decompose(m)
    regenerated = expm_general(-1j * dec.averaged_hamiltonian, m.period)
    np.testing.assert_allclose(regenerated, dec.floquet_op, atol=1e-12)
    np.testing.assert_allclose(
        dec.averaged_hamiltonian, dec.averaged_hamiltonian.conj().T, atol=1e-13
    )


# --------------------------------------------------------------- propagator


def test_propagator_pins():
    m = magic_model(delta=0.6, period=1.3)
    dec = decompose(m)
    np.testing.assert_allclose(propagator(dec, 0.0), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        propagator(dec, m.period), dec.floquet_op, atol=1e-14
    )
    # The squared magic-kick map is -1 for any detuning, so 2.7 periods is
    # a free segment with a sign.
    expected = -expm_hermitian(m.h0, -0.7 * m.period)
    np.testing.assert_allclose(propagator(dec, 2.7 * m.period), expected, atol=1e-12)
    with pytest.raises(DomainError):
        propagator(dec, -1e-9)
    with pytest.raises(DomainError):
        propagator_left_limit(dec, -1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            propagator(dec, t)
        with pytest.raises(DomainError):
            propagator_left_limit(dec, t)


def test_propagator_is_unitary_at_random_times():
    rng = np.random.default_rng(17)
    m = random_model(rng, dim=3)
    dec = decompose(m)
    for t in rng.uniform(0.0, 20 * m.period, 100):
        u = propagator(dec, float(t))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)


def test_propagator_cocycle_property():
    rng = np.random.default_rng(19)
    m = random_model(rng, dim=2, period=0.8)
    dec = decompose(m)
    u_t = dec.floquet_op
    t = 0.37 * m.period
    base = propagator(dec, t)
    power = np.eye(2, dtype=complex)
    for n in range(1, 51):
        power = u_t @ power
        np.testing.assert_allclose(
            propagator(dec, t + n * m.period), base @ power, atol=1e-10
        )


def test_propagator_is_right_continuous_at_kicks():
    rng = np.random.default_rng(23)
    m = random_model(rng, dim=3, period=1.2)
    dec = decompose(m)
    n = 4
    at_kick = propagator(dec, n * m.period)
    np.testing.assert_allclose(
        at_kick, np.linalg.matrix_power(dec.floquet_op, n), atol=1e-12
    )
    before = propagator_left_limit(dec, n * m.period)
    expected_before = expm_hermitian(m.h0, -m.period) @ np.linalg.matrix_power(
        dec.floquet_op, n - 1
    )
    np.testing.assert_allclose(before, expected_before, atol=1e-12)
    # Away from kicks the left limit is the propagator itself.
    t_mid = (n + 0.4) * m.period
    np.testing.assert_array_equal(
        propagator_left_limit(dec, t_mid), propagator(dec, t_mid)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    period=st.integers(1, 64).map(lambda k: k / 16),  # dyadic: n * T is exact
    n=st.integers(1, 10**9),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_propagator_stays_unitary_over_long_horizons(dim, seed, period, n, frac):
    m = random_model(np.random.default_rng(seed), dim=dim, period=period)
    dec = decompose(m)
    eye = np.eye(dim)
    u = propagator(dec, (n + frac) * period)
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-13
    left = propagator_left_limit(dec, n * period)
    assert np.max(np.abs(left.conj().T @ left - eye)) <= 1e-13
    expected = expm_hermitian(m.h0, -period) @ propagator(dec, (n - 1) * period)
    np.testing.assert_allclose(left, expected, rtol=0.0, atol=1e-13)


def test_propagator_matches_smoothed_kick_oracle():
    rng = np.random.default_rng(29)
    m = random_model(rng, dim=2, period=1.0, strength=0.9)
    dec = decompose(m)
    spec = oracle.RegularizationSpec(pulse_width=1e-5 * m.period)
    worst = 0.0
    for t in rng.uniform(0.0, 3 * m.period, 20):
        exact = propagator(dec, float(t))
        smoothed = oracle.regularized_propagator(m, float(t), spec)
        worst = max(worst, float(np.max(np.abs(exact - smoothed))))
    assert worst <= 1e-4


# ---------------------------------------------------------------- harmonics


def test_harmonic_decomposition_validation():
    m = magic_model()
    with pytest.raises(ValueError):
        harmonic_decomposition(m, [PAULI_Z], q_max=0)
    with pytest.raises(DimensionError):
        harmonic_decomposition(m, [np.eye(3)], q_max=2)
    with pytest.raises(HermiticityError):
        harmonic_decomposition(m, [np.array([[0.0, 1.0], [0.0, 0.0]])], q_max=2)


def test_component_lookup_errors():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=3)
    omega = math.pi / h.model.period
    with pytest.raises(KeyError):
        component(h, 0, omega, 4)
    with pytest.raises(KeyError):
        frequency_label(h, 0.123 * omega)
    with pytest.raises(ValueError):
        component(h, 0, omega, 1, basis="spherical")


@pytest.mark.parametrize("q", [-5, -2, -1, 0, 1, 2, 4])
def test_magic_angle_dephasing_harmonic_dyads(q):
    """Jump-operator matrix elements of sigma-z between the known Floquet pair."""
    delta, period = 0.6, 1.3
    h = harmonic_decomposition(magic_model(delta, period), [PAULI_Z], q_max=6)
    phi1, phi2 = analytic_floquet_pair(delta, period)
    omega = math.pi / period
    up = component(h, 0, omega, q, basis="original")
    value = phi1.conj() @ up @ phi2
    assert value == pytest.approx(2j / (math.pi * (2 * q + 1)), abs=1e-12)


@pytest.mark.parametrize("q", [-2, -1, 0, 1, 2, 3])
def test_magic_angle_y_coupling_dyads(q):
    """sigma-y at zero detuning mixes the pair with real coefficients."""
    period = 1.3
    h = harmonic_decomposition(magic_model(0.0, period), [PAULI_Y], q_max=4)
    phi1, phi2 = analytic_floquet_pair(0.0, period)
    omega = math.pi / period
    up = component(h, 0, omega, q, basis="original")
    down = component(h, 0, -omega, q, basis="original")
    assert phi1.conj() @ up @ phi2 == pytest.approx(
        -(2 / math.pi) / (1 + 2 * q), abs=1e-12
    )
    assert phi2.conj() @ down @ phi1 == pytest.approx(
        -(2 / math.pi) / (1 - 2 * q), abs=1e-12
    )


def test_magic_angle_harmonic_magnitudes_are_gauge_free():
    h = harmonic_decomposition(magic_model(0.9, 0.7), [PAULI_Z], q_max=8)
    omega = math.pi / 0.7
    for q in range(-8, 9):
        mat = component(h, 0, omega, q, basis="floquet")
        magnitudes = np.sort(np.abs(mat).ravel())
        assert magnitudes[-1] == pytest.approx(
            2 / (math.pi * abs(2 * q + 1)), abs=1e-12
        )
        assert np.all(magnitudes[:-1] < 1e-14)


def test_kick_free_decomposition_is_static():
    """Without kicks every coupling is concentrated in the q = 0 layer."""
    rng = np.random.default_rng(31)
    h0 = rand_herm(rng, 3) * 0.4
    coupling = rand_herm(rng, 3)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=0.0, period=1.0)
    h = harmonic_decomposition(m, [coupling], q_max=3)
    v = h.decomposition.basis
    static = np.zeros((3, 3), dtype=complex)
    for omega in h.frequencies:
        for q in range(-3, 4):
            mat = component(h, 0, float(omega), q)
            if q == 0:
                static += mat
            else:
                assert np.max(np.abs(mat)) < 1e-12
    np.testing.assert_allclose(static, v.conj().T @ coupling @ v, atol=1e-12)


def test_components_pair_up_under_adjoint():
    rng = np.random.default_rng(37)
    m = random_model(rng, dim=3)
    h = harmonic_decomposition(m, [rand_herm(rng, 3)], q_max=3)
    for omega in h.frequencies:
        for q in range(-3, 4):
            left = component(h, 0, float(omega), q).conj().T
            right = component(h, 0, float(-omega), -q)
            np.testing.assert_allclose(left, right, atol=1e-13)


def test_components_are_ladder_operators_of_the_averaged_hamiltonian():
    rng = np.random.default_rng(41)
    m = random_model(rng, dim=3)
    h = harmonic_decomposition(m, [rand_herm(rng, 3)], q_max=2)
    hbar = h.decomposition.averaged_hamiltonian
    for omega in h.frequencies:
        for q in range(-2, 3):
            mat = component(h, 0, float(omega), q, basis="original")
            np.testing.assert_allclose(
                hbar @ mat - mat @ hbar, omega * mat, atol=1e-10
            )


def test_partial_sums_reconstruct_the_heisenberg_coupling():
    m = magic_model(delta=0.3, period=1.1)
    h_small = harmonic_decomposition(m, [PAULI_Z], q_max=50)
    h_large = harmonic_decomposition(m, [PAULI_Z], q_max=200)
    t = 0.37 * m.period
    u = propagator(m, t)
    exact = u.conj().T @ PAULI_Z @ u
    err_small = np.max(np.abs(reconstruct_heisenberg(h_small, t) - exact))
    err_large = np.max(np.abs(reconstruct_heisenberg(h_large, t) - exact))
    assert err_large <= 1e-3
    assert err_large < err_small


def test_parseval_weight_accumulates_toward_the_coupling_norm():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    total = h.coupling_weight(0)
    assert total == pytest.approx(2.0)
    held = parseval_weight(h, 0)
    assert held < total
    wider = harmonic_decomposition(h.model, [PAULI_Z], q_max=64)
    assert held < parseval_weight(wider, 0) < total + 1e-14


def test_harmonics_reproduce_the_stored_coefficients():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    np.testing.assert_array_equal(h.harmonics(np.arange(-4, 5)), h.coefficients)
    np.testing.assert_array_equal(h.harmonics(np.array([2])), h.coefficients[:, 6:7])
    assert h.harmonics(np.arange(0)).shape == (1, 0, 2, 2)


@pytest.mark.parametrize("dim", [3, 9])
def test_extended_matches_a_fresh_decomposition(dim):
    """The harmonics beyond q_max, as build_generator's doubling rounds
    compute them, agree with a decomposition stored up to the larger q."""
    rng = np.random.default_rng(43)
    m = random_model(rng, dim=dim)
    couplings = [rand_herm(rng, dim), rand_herm(rng, dim)]
    h = harmonic_decomposition(m, couplings, q_max=3)
    new = np.arange(4, 12)
    wider = h.harmonics(np.concatenate([-new[::-1], new]))
    fresh = harmonic_decomposition(m, couplings, q_max=11)
    assert wider.shape == (2, 16, dim, dim)
    outer = np.r_[0:8, 15:23]  # |q| > 3 in the fresh q = -11..11 layout
    np.testing.assert_allclose(
        wider, fresh.coefficients[:, outer], rtol=0.0, atol=1e-15
    )
    with pytest.raises(ValueError):
        fresh.coefficients[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("dim,seed", [(2, 7), (3, 7)])
def test_closed_form_harmonics_match_quadrature(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, dim=dim, period=0.9, strength=0.8)
    coupling = rand_herm(rng, dim)
    h = harmonic_decomposition(m, [coupling], q_max=20)
    grid = oracle.quadrature_harmonics(m, coupling, q_max=20, n_samples=1 << 19)
    closed = np.stack(
        [
            sum(component(h, 0, float(w), q) for w in h.frequencies)
            for q in range(-20, 21)
        ]
    )
    np.testing.assert_allclose(closed, grid.coefficients[0], atol=1e-10)
