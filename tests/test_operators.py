"""Unit tests for the operator-algebra primitives."""

import numpy as np
import pytest

from conftest import conjugation_superop, rand_density, rand_herm, vectorize
from floqlind.errors import DimensionError, HermiticityError, InvalidStateError
from floqlind.operators import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_density,
    bloch_from_density,
    density_from_bloch,
    dissipator_superop,
    expm_general,
    expm_hermitian,
    require_hermitian,
    unvec,
    vec,
)


def test_pauli_algebra():
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=1e-15)
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, IDENTITY_2, atol=1e-15)


def test_maximally_mixed_maps_to_origin():
    np.testing.assert_allclose(
        bloch_from_density(IDENTITY_2 / 2.0), np.zeros(3), atol=1e-15
    )


def test_projector_on_first_level_points_up():
    np.testing.assert_allclose(
        bloch_from_density(np.diag([1.0, 0.0])), [0.0, 0.0, 1.0], atol=1e-15
    )


@pytest.mark.parametrize("seed", range(6))
def test_pure_states_sit_on_the_unit_sphere(seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    x = bloch_from_density(np.outer(psi, psi.conj()))
    assert abs(float(np.dot(x, x)) - 1.0) < 1e-12


def test_bloch_roundtrip_across_the_ball():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        direction = rng.standard_normal(3)
        x = direction * (rng.uniform(0.0, 1.0) / np.linalg.norm(direction))
        np.testing.assert_allclose(
            bloch_from_density(density_from_bloch(x)), x, atol=1e-14
        )


def test_density_from_bloch_rejects_points_outside_the_ball():
    with pytest.raises(InvalidStateError):
        density_from_bloch([0.8, 0.8, 0.8])


def test_density_from_bloch_needs_three_components():
    with pytest.raises(DimensionError):
        density_from_bloch([0.1, 0.2])


def test_bloch_parametrization_needs_a_qubit():
    with pytest.raises(DimensionError):
        bloch_from_density(np.eye(3) / 3.0)


def test_half_turn_kick_is_minus_i_sigma_x():
    np.testing.assert_allclose(
        expm_hermitian(PAULI_X, -np.pi / 2.0), -1j * PAULI_X, atol=1e-14
    )


@pytest.mark.parametrize("seed", range(4))
def test_expm_hermitian_stays_unitary_and_matches_general(seed):
    rng = np.random.default_rng(10 + seed)
    h = rand_herm(rng, 3)
    u = expm_hermitian(h, -2.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(u, expm_general(h, -2.7j), atol=1e-12)


def test_expm_general_on_a_nilpotent_matrix():
    np.testing.assert_allclose(
        expm_general(np.array([[0.0, 1.0], [0.0, 0.0]])),
        [[1.0, 1.0], [0.0, 1.0]],
        atol=1e-15,
    )


def test_expm_general_matches_eigendecomposition():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    evals, evecs = np.linalg.eig(m)
    expected = evecs @ np.diag(np.exp(0.7 * evals)) @ np.linalg.inv(evecs)
    np.testing.assert_allclose(expm_general(m, 0.7), expected, atol=1e-10)


def test_vec_column_stacks():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(vec(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_allclose(unvec(vec(m)), m)


def test_unvec_rejects_non_square_lengths():
    with pytest.raises(DimensionError):
        unvec(np.arange(5, dtype=complex))


def test_sandwich_superop_on_matrix_units():
    """rho -> A rho B must vectorize to kron(B.T, A)."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = np.kron(b.T, a)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            np.testing.assert_allclose(
                unvec(s @ vec(unit)), a @ unit @ b, atol=1e-13
            )


def test_conjugation_superop_of_a_unitary_is_unitary():
    rng = np.random.default_rng(2)
    u = expm_hermitian(rand_herm(rng, 4), 1.3)
    s = conjugation_superop(u)
    np.testing.assert_allclose(s @ s.conj().T, np.eye(16), atol=1e-12)


def test_vectorize_reproduces_the_sampled_map():
    rng = np.random.default_rng(4)
    h = rand_herm(rng, 2)
    sampled = vectorize(lambda rho: -1j * (h @ rho - rho @ h), 2)
    commutator = -1j * (np.kron(np.eye(2), h) - np.kron(h.T, np.eye(2)))
    np.testing.assert_allclose(commutator, sampled, atol=1e-14)


def test_dissipator_matches_definition_and_is_traceless():
    rng = np.random.default_rng(6)
    jump = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = rand_density(rng)
    image = unvec(dissipator_superop(jump) @ vec(rho))
    expected = jump @ rho @ jump.conj().T - 0.5 * (
        jump.conj().T @ jump @ rho + rho @ jump.conj().T @ jump
    )
    np.testing.assert_allclose(image, expected, atol=1e-13)
    assert abs(np.trace(image)) < 1e-13


def test_require_hermitian_rejects_asymmetry():
    with pytest.raises(HermiticityError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_rejects_non_square():
    with pytest.raises(DimensionError):
        require_hermitian(np.ones((2, 3)))


def test_require_hermitian_rejects_non_finite():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_density_accepts_and_symmetrizes():
    rho = as_density(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(rho, np.diag([0.25, 0.75]), atol=1e-15)


def test_as_density_rejects_bad_trace_and_negativity():
    with pytest.raises(InvalidStateError, match=r"\|tr - 1\| = 1\.000e-01"):
        as_density(np.diag([0.5, 0.6]))
    with pytest.raises(InvalidStateError):
        as_density(np.diag([1.5, -0.5]))
    with pytest.raises(InvalidStateError):
        as_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
