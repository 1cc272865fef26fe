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


def _as_square_matrix(op: np.ndarray, stack: bool = False) -> np.ndarray:
    """``op`` as a complex square matrix, or as a stack (..., d, d) of them."""
    mat = np.asarray(op, dtype=complex)
    square = mat.ndim >= 2 and mat.shape[-1] == mat.shape[-2]
    if not square or (mat.ndim > 2 and not stack):
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    return mat


def require_hermitian(op: np.ndarray) -> np.ndarray:
    """Return ``op`` as a complex array, raising if it is not Hermitian
    within HERMITICITY_ATOL entrywise."""
    mat = _as_square_matrix(op)
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=HERMITICITY_ATOL):
        defect = np.max(np.abs(mat - mat.conj().T))
        raise HermiticityError(f"matrix deviates from Hermiticity by {defect:.3e}")
    return mat


def as_densities(rhos: np.ndarray) -> np.ndarray:
    """Validate and normalize a stack of density matrices, shape (..., d, d).

    Each matrix must be Hermitian within PSD_ATOL, have unit trace within
    TRACE_ATOL, and be positive semidefinite (minimum eigenvalue >=
    -PSD_ATOL).  The returned matrices are re-symmetrized to
    ``(rho + rho†)/2`` to absorb rounding from upstream arithmetic.  Each
    property is checked on the whole stack at once; the message names
    the first matrix that fails it.

    Positivity is first decided by one batched Cholesky factorization of
    ``sym + (PSD_ATOL / 2) I``.  Its success proves every minimum
    eigenvalue above -PSD_ATOL: the factorization's backward error, of
    order d^2 eps ||sym||, stays below PSD_ATOL / 2 up to d of about 60,
    since unit trace with no eigenvalue below -PSD_ATOL keeps ||sym||
    near 1.  Only when it fails does ``eigvalsh`` decide, exactly as the
    definition above reads, so a state that the shift cannot certify is
    never rejected for it.

    Raises
    ------
    InvalidStateError
        If any of the three defining properties fails.
    """
    mats = _as_square_matrix(rhos, stack=True)
    adjoint = mats.conj().swapaxes(-1, -2)
    if np.any(np.abs(mats - adjoint) > PSD_ATOL):
        raise InvalidStateError("density matrix is not Hermitian")
    trace = np.trace(mats, axis1=-2, axis2=-1)
    off = (np.abs(trace.real - 1.0) > TRACE_ATOL) | (np.abs(trace.imag) > TRACE_ATOL)
    if np.any(off):
        defect = abs(trace[off][0] - 1.0)
        raise InvalidStateError(f"density matrix has |tr - 1| = {defect:.3e}")
    sym = 0.5 * (mats + adjoint)
    try:
        np.linalg.cholesky(sym + 0.5 * PSD_ATOL * np.eye(sym.shape[-1]))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(sym)[..., 0]
        negative = lowest < -PSD_ATOL
        if np.any(negative):
            raise InvalidStateError(
                f"density matrix has negative eigenvalue {lowest[negative][0]:.3e}"
            ) from None
    return sym


def as_density(rho: np.ndarray) -> np.ndarray:
    """Validate and normalize one density matrix: :func:`as_densities`
    on a single (d, d) matrix."""
    return as_densities(_as_square_matrix(rho)[None])[0]


def _right_multiply(stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``stack @ c`` for a stack (..., n, d) and one (d, m) matrix ``c``, as
    a single GEMM on the stack's rows, where numpy's ``@`` makes one BLAS
    call per matrix.  At d = 2 and 3 its bits are those of ``@`` on every
    OpenBLAS kernel tested; at larger d they match on some kernels only.
    Its callers are :func:`_conjugate` and ``floquet._unitary``."""
    out = stack.reshape(-1, stack.shape[-1]) @ c
    return out.reshape(*stack.shape[:-1], c.shape[-1])


def _conjugate(stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``c @ x @ c†`` for every matrix x of a stack (N, d, d) and one (d, d)
    matrix ``c``.  The left factor is one GEMM on the (d, N·d) view of the
    stack, whose columns are those of every x in turn (free when the
    stack is a transposed view of a contiguous array); the right factor is
    one :func:`_right_multiply`."""
    columns = stack.swapaxes(1, 2).reshape(-1, c.shape[1]).T
    left = (c @ columns).T.reshape(stack.shape).swapaxes(1, 2)
    return _right_multiply(left, c.conj().T)


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
    """Bloch components (x1, x2, x3) of a qubit density matrix, or of each
    in a stack (..., 2, 2), along the last axis.

    Uses x1 = 2 Re rho[1,0], x2 = 2 Im rho[1,0], x3 = 2 rho[0,0] - 1,
    which equals Tr(rho sigma_i) for a valid state.
    """
    mat = _as_square_matrix(rho, stack=True)
    if mat.shape[-2:] != (2, 2):
        raise DimensionError(
            f"Bloch parametrization needs a qubit, got shape {mat.shape[-2:]}"
        )
    coherence, population = mat[..., 1, 0], mat[..., 0, 0].real
    return np.stack(
        [2.0 * coherence.real, 2.0 * coherence.imag, 2.0 * population - 1.0], axis=-1
    )


def density_from_bloch(x: np.ndarray) -> np.ndarray:
    """Qubit density matrix (I + x . sigma)/2 for a Bloch vector x.

    Raises
    ------
    InvalidStateError
        If |x| exceeds 1 + 2 PSD_ATOL (the point lies outside the Bloch
        ball): the lowest eigenvalue (1 - |x|)/2 is then below -PSD_ATOL,
        where :func:`as_density` rejects the matrix.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DimensionError(f"Bloch vector must have 3 components, got shape {x.shape}")
    norm_sq = float(np.dot(x, x))
    if norm_sq > (1.0 + 2.0 * PSD_ATOL) ** 2:
        raise InvalidStateError(f"Bloch vector has norm {np.sqrt(norm_sq):.6f} > 1")
    return 0.5 * (IDENTITY_2 + x[0] * PAULI_X + x[1] * PAULI_Y + x[2] * PAULI_Z)


def expm_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    """Unitary e^{i s H} for Hermitian H, via eigendecomposition.

    Exact spectral calculus keeps the result unitary to rounding even for
    large |s|, where scaling-and-squaring would accumulate error.  Raises
    FloatingPointError where some s * eigenvalue overflows.
    """
    mat = require_hermitian(h)
    evals, evecs = scipy.linalg.eigh(mat)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        phases = np.exp(1j * s * evals)
    if not np.all(np.isfinite(phases)):
        largest = float(np.max(np.abs(evals)))
        raise FloatingPointError(
            f"e^{{i s H}} overflows: s = {s!r} times an eigenvalue of H, up to "
            f"{largest!r} in magnitude, leaves the double range"
        )
    return (evecs * phases) @ evecs.conj().T


def expm_general(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t M} for an arbitrary square matrix."""
    mat = _as_square_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
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
