"""Unit tests for the operator-algebra primitives."""

import numpy as np
import pytest

from conftest import (
    conjugation_superop,
    rand_density,
    rand_herm,
    run_with_haswell_blas,
    vectorize,
)
from floqlind.errors import DimensionError, HermiticityError, InvalidStateError
from floqlind.operators import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_ATOL,
    _right_multiply,
    as_densities,
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


def test_density_from_bloch_accepts_what_as_density_accepts():
    """Along axis 3 the lowest eigenvalue is (1 - x3)/2, so both take x3 up
    to 1 + 2 PSD_ATOL and refuse it beyond."""
    density_from_bloch([0.0, 0.0, 1.0 + 1.9e-12])
    as_density(np.diag([1.0 + 0.95e-12, -0.95e-12]))
    with pytest.raises(InvalidStateError):
        density_from_bloch([0.0, 0.0, 1.0 + 2.1e-12])
    with pytest.raises(InvalidStateError):
        as_density(np.diag([1.0 + 1.05e-12, -1.05e-12]))


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


def test_expm_hermitian_reports_an_overflowing_phase():
    """s E = 1e310 is above the double range; the phase is refused, with
    no numpy warning on the way."""
    with pytest.raises(FloatingPointError, match="leaves the double range"):
        expm_hermitian(1e300 * PAULI_Z, 1e10)


@pytest.mark.parametrize(
    "m", [[[800.0]], [[0.0, 900.0], [900.0, 0.0]]], ids=["exp", "matmul"]
)
def test_expm_general_reports_overflow_with_its_own_error(m):
    """e^800 and cosh 900 leave the double range, in numpy's exp and in a
    matmul of the squaring; the typed error escapes, no numpy warning."""
    with pytest.raises(ArithmeticError, match="matrix exponential overflowed"):
        expm_general(np.array(m))


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


def test_as_densities_checks_each_matrix_like_as_density():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 8):
        stack = np.array([rand_density(rng, dim) for _ in range(6)])
        stack += 1e-14j * np.array([rand_herm(rng, dim) for _ in range(6)])  # skew noise
        checked = as_densities(stack)
        for mat, one in zip(stack, checked):
            np.testing.assert_array_equal(as_density(mat), one)
    good = np.eye(2) / 2
    cases = [
        (np.diag([0.5, 0.6]), r"^density matrix has \|tr - 1\| = 1\.000e-01$"),
        (np.diag([1.5, -0.5]), r"^density matrix has negative eigenvalue -5\.000e-01$"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), r"^density matrix is not Hermitian$"),
    ]
    for bad, message in cases:
        with pytest.raises(InvalidStateError, match=message):
            as_density(bad)
        with pytest.raises(InvalidStateError, match=message):
            as_densities(np.array([good, bad, good]))
    with pytest.raises(DimensionError):
        as_densities(np.ones(4))
    with pytest.raises(DimensionError):
        as_density(np.stack([good, good]))
    with pytest.raises(ValueError, match="non-finite"):
        as_densities(np.array([good, np.full((2, 2), np.nan)]))


def _rotated_spectrum(rng, dim, lowest):
    """A Hermitian unit-trace matrix whose least eigenvalue is ``lowest``,
    in a random unitary frame."""
    rest = rng.uniform(0.1, 1.0, dim - 1)
    spectrum = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    mat = (q * spectrum) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("dim", range(2, 9))
def test_as_densities_decides_positivity_exactly_where_eigvalsh_does(dim):
    """Positivity is decided by a shifted Cholesky factorization, with
    eigvalsh only as the fallback; it must reject exactly the matrices whose
    least eigvalsh eigenvalue is below -PSD_ATOL, and name the first."""
    rng = np.random.default_rng(40 + dim)
    lowest = [-1.01 * PSD_ATOL, -0.99 * PSD_ATOL, 0.99 * PSD_ATOL, 0.0, -0.3, -1e-6]
    stack = np.array([_rotated_spectrum(rng, dim, x) for x in lowest * 4])
    reference = np.linalg.eigvalsh(stack)[:, 0]
    rejected = reference < -PSD_ATOL
    assert rejected.any() and not rejected.all()
    for mat, least, bad in zip(stack, reference, rejected):
        if bad:
            message = f"^density matrix has negative eigenvalue {least:.3e}$"
            with pytest.raises(InvalidStateError, match=message):
                as_densities(mat[None])
        else:
            np.testing.assert_array_equal(as_densities(mat[None])[0], mat)
    accepted = stack[~rejected]
    np.testing.assert_array_equal(as_densities(accepted), accepted)
    # With two failing matrices, the message names the first one.
    good, bad, least = accepted[:3], stack[rejected], reference[rejected]
    for first, later in [(0, 4), (4, 0), (5, 0)]:
        pair = np.concatenate([good, bad[[first]], good, bad[[later]]])
        with pytest.raises(InvalidStateError,
                           match=f"negative eigenvalue {least[first]:.3e}$"):
            as_densities(pair)


_RIGHT_MULTIPLY_CHECK = """
import ctypes, glob, os
import numpy as np
from floqlind.operators import _right_multiply
rng = np.random.default_rng(11)
same = []
for dim in (2, 3):
    for count in (1, 7, 2000):
        a, c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((count, dim, dim), (dim, dim)))
        for right in (c, c.conj().T):
            same.append(np.array_equal(_right_multiply(a, right), a @ right))
        same.append(np.array_equal(_right_multiply(a[0], c), a[0] @ c))
# The core type the OpenBLAS bundled with numpy picked at load time.
core = "unknown"
for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
print(all(same), len(same), core)
"""


def test_right_multiply_has_the_bits_of_matmul_at_d_2_and_3(capsys):
    """One GEMM over the stacked rows gives the bits of numpy's per-matrix
    ``@`` at d = 2 and 3, both on the BLAS kernels this host picks and on
    OpenBLAS's Haswell kernels.  ``dynamics.evolve`` leans on it to keep its
    states' bits."""
    exec(_RIGHT_MULTIPLY_CHECK, {})
    assert capsys.readouterr().out.split()[:2] == ["True", "18"]
    same, checks, core = run_with_haswell_blas(_RIGHT_MULTIPLY_CHECK)
    assert (same, checks) == ("True", "18")
    assert core in ("Haswell", "unknown")  # the variable took effect


def test_bloch_from_density_maps_stacks_along_the_last_axis():
    rng = np.random.default_rng(8)
    stack = np.array([rand_density(rng, 2) for _ in range(5)])
    expected = np.array([bloch_from_density(mat) for mat in stack])
    np.testing.assert_array_equal(bloch_from_density(stack), expected)
    with pytest.raises(DimensionError, match=r"got shape \(3, 3\)"):
        bloch_from_density(np.eye(3)[None] / 3)
