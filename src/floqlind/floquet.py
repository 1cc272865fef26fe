"""Floquet analysis of a periodically kicked Hamiltonian.

The model is H(t) = H0 + lam * W * sum_k delta(t - kT).  Between kicks the
system evolves freely; each kick applies e^{-i lam W}.  The one-period
propagator ("just after" the kick at T) is therefore

    U(T) = e^{-i lam W} e^{-i H0 T},

and the evolution at t = (n + frac) T factorizes through the averaged
Hamiltonian Hbar = -log(U(T))/(iT) as

    U(t) = e^{-i H0 T frac} e^{-i Hbar n T},

both factors taken through their eigenbases, so U is unitary to rounding
for any n.  U is right-continuous at kick times: U(nT) includes the
first n kicks, and the kick at t=0 is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError
from .operators import expm_hermitian, require_hermitian

# Relative fuzz used when snapping t/T to an integer; keeps kick-time
# sampling on the right-continuous branch despite float division.
_PERIOD_SNAP = 1e-9
_CHUNK_ELEMENTS = 1 << 12  # Fourier integrals per chunk of harmonics


def floor_frac(t: float, period: float) -> tuple[int, float]:
    """Split t into (n, frac) with t = (n + frac) * period, 0 <= frac < 1.

    Values of t/period within 1e-9 below an integer snap up to it, so
    times meant to be exact multiples of the period land on the
    "just after the kick" branch.  Raises DomainError when t/period is
    not finite.
    """
    raw = t / period
    if not math.isfinite(raw):
        raise DomainError(f"time must be finite, got t/period = {raw}")
    n = math.floor(raw)
    frac = raw - n
    if frac > 1.0 - _PERIOD_SNAP:
        return n + 1, 0.0
    return n, frac


@dataclass(frozen=True)
class KickedModel:
    """Kicked Hamiltonian H0 + strength * kick * (periodic delta train).

    Parameters
    ----------
    h0 : ndarray
        Static Hamiltonian (angular-frequency units, hbar = 1).
    kick : ndarray
        Hermitian kick direction W (dimensionless).
    strength : float
        Integrated kick strength lam (radians).
    period : float
        Kick period T > 0.
    """

    h0: np.ndarray
    kick: np.ndarray
    strength: float
    period: float

    def __post_init__(self) -> None:
        h0 = require_hermitian(self.h0)
        kick = require_hermitian(self.kick)
        if h0.shape != kick.shape:
            raise DimensionError(
                f"h0 {h0.shape} and kick {kick.shape} must have the same shape"
            )
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if not math.isfinite(self.strength):
            raise ValueError(f"strength must be finite, got {self.strength}")
        h0.flags.writeable = False
        kick.flags.writeable = False
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "kick", kick)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def omega(self) -> float:
        """Kick angular frequency 2 pi / period."""
        return 2.0 * math.pi / self.period


def floquet_operator(m: KickedModel) -> np.ndarray:
    """One-period propagator e^{-i lam W} e^{-i H0 T}."""
    return expm_hermitian(m.kick, -m.strength) @ expm_hermitian(m.h0, -m.period)


@dataclass(frozen=True)
class FloquetDecomposition:
    """Quasienergy data of a kicked model.

    ``basis`` holds the Floquet eigenvectors as columns, orthonormal, in a
    deterministic gauge (largest-magnitude entry real positive), ordered
    by decreasing quasienergy.  ``quasienergies`` lie in the principal
    zone (-Omega/2, Omega/2].  ``free_energies`` and ``free_basis`` are
    the eigendecomposition of H0, the free evolution between kicks.
    """

    model: KickedModel
    floquet_op: np.ndarray
    averaged_hamiltonian: np.ndarray
    quasienergies: np.ndarray
    basis: np.ndarray
    free_energies: np.ndarray
    free_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def decompose(m: KickedModel) -> FloquetDecomposition:
    """Diagonalize the Floquet operator.

    Uses the complex Schur form, which returns an orthonormal set of
    vectors even for (numerically) degenerate eigenvalues; for the
    unitary U(T) the Schur factor is diagonal up to rounding, so the
    columns are eigenvectors.
    """
    u_t = floquet_operator(m)
    schur_t, z = scipy.linalg.schur(u_t, output="complex")
    eigenvalues = np.diag(schur_t)

    omega = m.omega
    quasi = -np.angle(eigenvalues) / m.period
    # np.angle returns (-pi, pi], so quasi sits in [-Omega/2, Omega/2);
    # move the lower edge to the upper to get the zone (-Omega/2, Omega/2].
    quasi = np.where(quasi <= -0.5 * omega, quasi + omega, quasi)

    order = np.argsort(-quasi, kind="stable")
    quasi = quasi[order]
    basis = z[:, order].copy()
    for k in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, k])))
        phase = basis[pivot, k] / abs(basis[pivot, k])
        basis[:, k] /= phase

    hbar = (basis * quasi) @ basis.conj().T
    hbar = 0.5 * (hbar + hbar.conj().T)
    energies, free_basis = scipy.linalg.eigh(m.h0)

    for arr in (u_t, hbar, quasi, basis, energies, free_basis):
        arr.flags.writeable = False
    return FloquetDecomposition(
        model=m,
        floquet_op=u_t,
        averaged_hamiltonian=hbar,
        quasienergies=quasi,
        basis=basis,
        free_energies=energies,
        free_basis=free_basis,
    )


def _as_decomposition(m: KickedModel | FloquetDecomposition) -> FloquetDecomposition:
    if isinstance(m, FloquetDecomposition):
        return m
    return decompose(m)


def _unitary(dec: FloquetDecomposition, n: int, frac: float) -> np.ndarray:
    """(W e^{-i E T frac} W†)(V e^{-i eps T n} V†): n kicks, then frac of a period."""
    period = dec.model.period
    w, v = dec.free_basis, dec.basis
    free = (w * np.exp(-1j * period * frac * dec.free_energies)) @ w.conj().T
    return free @ ((v * np.exp(-1j * period * n * dec.quasienergies)) @ v.conj().T)


def propagator(m: KickedModel | FloquetDecomposition, t: float) -> np.ndarray:
    """Exact propagator U(t) of the kicked model, right-continuous at kicks.

    Accepts either a model or a precomputed decomposition (the latter
    avoids rediagonalizing in time loops).
    """
    if t < 0.0:
        raise DomainError(f"propagator defined for t >= 0, got {t}")
    dec = _as_decomposition(m)
    return _unitary(dec, *floor_frac(t, dec.model.period))


def propagator_left_limit(
    m: KickedModel | FloquetDecomposition, t: float
) -> np.ndarray:
    """Limit of U(s) as s -> t from below; differs from U(t) only at kicks."""
    if t < 0.0:
        raise DomainError(f"propagator defined for t >= 0, got {t}")
    dec = _as_decomposition(m)
    n, frac = floor_frac(t, dec.model.period)
    if frac == 0.0 and n > 0:
        # Just before the kick at t = nT: a full free segment after n-1 kicks.
        n, frac = n - 1, 1.0
    return _unitary(dec, n, frac)


def _cluster_frequencies(
    quasienergies: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Group all pairwise quasienergy differences into clusters.

    Returns (representatives, index) where index[k, l] labels the cluster
    of quasienergies[k] - quasienergies[l] and representatives holds the
    cluster means.  Differences closer than ``tol`` share a label.
    """
    d = len(quasienergies)
    diffs = quasienergies[:, None] - quasienergies[None, :]
    flat = diffs.reshape(-1)
    order = np.argsort(flat)
    labels = np.empty(d * d, dtype=int)
    reps: list[float] = []
    members: list[float] = []
    for pos in order:
        value = flat[pos]
        if members and value - members[-1] > tol:
            reps.append(float(np.mean(members)))
            members = []
        members.append(value)
        labels[pos] = len(reps)
    if members:
        reps.append(float(np.mean(members)))
    return np.asarray(reps), labels.reshape(d, d)


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Fourier data of Heisenberg-picture coupling operators.

    For each coupling S the interaction-picture operator splits as

        U(t)† S U(t) = sum_{omega, q} S(omega, q) e^{i (omega + q Omega) t}

    where omega runs over quasienergy differences and q over harmonics of
    the kick frequency Omega.  ``coefficients[alpha, q + q_max, k, l]``
    stores the Floquet-basis matrix elements; the (omega, q) component
    matrices are slices of this tensor masked by frequency cluster.
    Components obey S(omega, q)† = S(-omega, -q) and
    [Hbar, S(omega, q)] = omega S(omega, q).
    """

    decomposition: FloquetDecomposition
    couplings: tuple[np.ndarray, ...]
    q_max: int
    frequencies: np.ndarray
    cluster_index: np.ndarray
    coefficients: np.ndarray

    @property
    def model(self) -> KickedModel:
        return self.decomposition.model

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    @property
    def n_couplings(self) -> int:
        return len(self.couplings)

    def coupling_weight(self, alpha: int) -> float:
        """Squared Frobenius norm of the coupling (basis independent)."""
        return float(np.sum(np.abs(self.couplings[alpha]) ** 2))

    def harmonics(self, q_values: np.ndarray) -> np.ndarray:
        """Coefficients like ``coefficients``, at the harmonics ``q_values``."""
        return _fourier_tensor(self.decomposition, list(self.couplings), q_values)


def _fourier_tensor(
    dec: FloquetDecomposition, couplings: list[np.ndarray], q_values: np.ndarray
) -> np.ndarray:
    """Closed-form Fourier coefficients of V† P(t)† S P(t) V.

    Expanding P(t) in the eigenbases of H0 and Hbar reduces each matrix
    element to a sum of pure exponentials e^{i mu T x} over one period,
    whose Fourier integrals are analytic:

        int_0^1 e^{i(mu T - 2 pi q) x} dx = e^{ic/2} sinc(c / 2 pi),

    c = mu T - 2 pi q.  This is exact for every q, unlike quadrature,
    which struggles with the sawtooth discontinuity.
    """
    period = dec.model.period
    energies, h0_basis = dec.free_energies, dec.free_basis
    overlap = dec.basis.conj().T @ h0_basis  # overlap[k, a] = <phi_k | a>
    quasi = dec.quasienergies

    # mu[(a, b), (k, l)] = (E_a - E_b) + (eps_l - eps_k)
    dim = len(energies)
    mu = (
        energies[:, None, None, None]
        - energies[None, :, None, None]
        + quasi[None, None, None, :]
        - quasi[None, None, :, None]
    ).reshape(dim * dim, dim * dim)
    stacked = np.reshape(couplings, (len(couplings), dim, dim))
    s_h0 = h0_basis.conj().T @ stacked @ h0_basis
    weights = np.einsum("ka,xab,lb->xabkl", overlap, s_h0, overlap.conj())
    weights = weights.reshape((len(couplings),) + mu.shape)
    # All harmonics at once, in chunks that bound the temporaries.
    out = np.empty((len(couplings), len(q_values), dim * dim), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // max(mu.size, 1))
    for start in range(0, len(q_values), step):
        q = q_values[start : start + step, None, None]
        c = mu * period - 2.0 * math.pi * q
        integral = np.exp(0.5j * c) * np.sinc(c / (2.0 * math.pi))
        out[:, start : start + step] = np.einsum("xpk,qpk->xqk", weights, integral)
    return out.reshape(out.shape[:2] + dec.basis.shape)


def harmonic_decomposition(
    m: KickedModel, couplings: list[np.ndarray], q_max: int
) -> HarmonicDecomposition:
    """Closed-form harmonic decomposition of coupling operators.

    Parameters
    ----------
    m : KickedModel
    couplings : list of Hermitian operators
    q_max : int
        Harmonics |q| <= q_max are computed; must be >= 1.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    validated = [require_hermitian(s) for s in couplings]
    for s in validated:
        if s.shape != m.h0.shape:
            raise DimensionError(
                f"coupling shape {s.shape} does not match model dimension {m.dim}"
            )
    dec = decompose(m)
    coefficients = _fourier_tensor(dec, validated, np.arange(-q_max, q_max + 1))
    frequencies, cluster_index = _cluster_frequencies(
        dec.quasienergies, 1e-9 * m.omega
    )
    coefficients.flags.writeable = False
    return HarmonicDecomposition(
        decomposition=dec,
        couplings=tuple(validated),
        q_max=q_max,
        frequencies=frequencies,
        cluster_index=cluster_index,
        coefficients=coefficients,
    )


def reconstruct_heisenberg(
    h: HarmonicDecomposition, t: float, alpha: int = 0
) -> np.ndarray:
    """Partial Fourier sum sum_{omega, |q| <= q_max} S(omega,q) e^{i(omega+q Omega)t}.

    Returned in the original basis.  Converges to U(t)† S U(t) away from
    the kick times, where the Heisenberg operator is discontinuous.
    """
    quasi = h.decomposition.quasienergies
    q_values = np.arange(-h.q_max, h.q_max + 1)
    harmonic_phases = np.exp(1j * h.model.omega * t * q_values)
    summed = np.tensordot(harmonic_phases, h.coefficients[alpha], axes=(0, 0))
    pair_phase = np.exp(1j * (quasi[:, None] - quasi[None, :]) * t)
    v = h.decomposition.basis
    return v @ (summed * pair_phase) @ v.conj().T
