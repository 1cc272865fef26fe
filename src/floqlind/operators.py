"""Finite-dimensional operator algebra used throughout the package.

Vectorization follows the column-stacking convention: ``vec(rho)`` stacks
the columns of ``rho`` top to bottom, so ``vec(A @ X @ B) == kron(B.T, A)
@ vec(X)``.  Every superoperator in this package is a matrix acting on
column-stacked states; mixing conventions is the classic silent bug, so
all code converting between matrices and vectors must go through
:func:`vec` and :func:`unvec`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, HermiticityError, InvalidStateError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def _as_square_matrix(op: np.ndarray) -> np.ndarray:
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    return mat


def require_hermitian(op: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Return ``op`` as a complex array, raising if it is not Hermitian.

    Parameters
    ----------
    op : array_like
        Square matrix to check.
    atol : float
        Absolute entrywise tolerance on ``op - op.conj().T``.
    """
    mat = _as_square_matrix(op)
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=atol):
        defect = np.max(np.abs(mat - mat.conj().T))
        raise HermiticityError(f"matrix deviates from Hermiticity by {defect:.3e}")
    return mat


def as_density(rho: np.ndarray, atol: float = PSD_ATOL) -> np.ndarray:
    """Validate and normalize a density matrix.

    The input must be Hermitian within ``atol``, have unit trace, and be
    positive semidefinite (minimum eigenvalue >= -atol).  The returned
    matrix is re-symmetrized to ``(rho + rho†)/2`` to absorb rounding from
    upstream arithmetic.

    Raises
    ------
    InvalidStateError
        If any of the three defining properties fails.
    """
    mat = _as_square_matrix(rho)
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=atol):
        raise InvalidStateError("density matrix is not Hermitian")
    trace = np.trace(mat)
    if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
        raise InvalidStateError(f"density matrix has |tr - 1| = {abs(trace - 1.0):.3e}")
    sym = 0.5 * (mat + mat.conj().T)
    lowest = scipy.linalg.eigvalsh(sym)[0]
    if lowest < -atol:
        raise InvalidStateError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return sym


def vec(op: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(op, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; infers the (square) dimension."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    dim = round(len(v) ** 0.5)
    if dim * dim != len(v):
        raise DimensionError(f"vector of length {len(v)} is not a stacked square matrix")
    return v.reshape((dim, dim), order="F")


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch components (x1, x2, x3) of a qubit density matrix.

    Uses x1 = 2 Re rho[1,0], x2 = 2 Im rho[1,0], x3 = 2 rho[0,0] - 1,
    which equals Tr(rho sigma_i) for a valid state.
    """
    mat = _as_square_matrix(rho)
    if mat.shape != (2, 2):
        raise DimensionError(f"Bloch parametrization needs a qubit, got shape {mat.shape}")
    return np.array(
        [2.0 * mat[1, 0].real, 2.0 * mat[1, 0].imag, 2.0 * mat[0, 0].real - 1.0]
    )


def density_from_bloch(x: np.ndarray) -> np.ndarray:
    """Qubit density matrix (I + x . sigma)/2 for a Bloch vector x.

    Raises
    ------
    InvalidStateError
        If |x| exceeds 1 beyond tolerance (the point lies outside the
        Bloch ball).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DimensionError(f"Bloch vector must have 3 components, got shape {x.shape}")
    norm_sq = float(np.dot(x, x))
    if norm_sq > 1.0 + 1e-12:
        raise InvalidStateError(f"Bloch vector has norm {np.sqrt(norm_sq):.6f} > 1")
    return 0.5 * (IDENTITY_2 + x[0] * PAULI_X + x[1] * PAULI_Y + x[2] * PAULI_Z)


def expm_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    """Unitary e^{i s H} for Hermitian H, via eigendecomposition.

    Exact spectral calculus keeps the result unitary to rounding even for
    large |s|, where scaling-and-squaring would accumulate error.
    """
    mat = require_hermitian(h)
    evals, evecs = scipy.linalg.eigh(mat)
    phases = np.exp(1j * s * evals)
    return (evecs * phases) @ evecs.conj().T


def expm_general(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t M} for an arbitrary square matrix."""
    mat = _as_square_matrix(m)
    out = scipy.linalg.expm(t * mat)
    if not np.all(np.isfinite(out.view(float))):
        raise ArithmeticError("matrix exponential overflowed")
    return out


def dissipator_superop(jump: np.ndarray) -> np.ndarray:
    """Superoperator of the GKSL dissipator with jump operator S.

    Implements rho -> S rho S† - (S†S rho + rho S†S)/2 in the
    column-stacking convention.
    """
    s = np.asarray(jump, dtype=complex)
    dim = s.shape[0]
    gram = s.conj().T @ s
    eye = np.eye(dim, dtype=complex)
    return (
        np.kron(s.conj(), s)
        - 0.5 * np.kron(eye, gram)
        - 0.5 * np.kron(gram.T, eye)
    )
