"""Assembly of the interaction-picture Lindblad generator.

The generator is a sum of GKSL dissipators, one per harmonic component of
each coupling operator, weighted by the bath spectral density at the
component's effective frequency:

    L rho = sum_{alpha, omega, q} gamma_alpha(omega + q Omega)
            [ S rho S† - (S†S rho + rho S†S)/2 ],   S = S_alpha(omega, q).

Couplings with different alpha are treated as statistically independent
(no cross terms).  The harmonic series is truncated adaptively: by
Parseval, sum_{omega,q} ||S(omega,q)||_F^2 = ||S||_F^2 exactly, so the
weight beyond |q| <= q_max is known in closed form, and multiplying it by
a bound on gamma over the frequencies remaining in the tail gives a
rigorous cap on the discarded rates.

All components enter one running contraction (see ``_dissipator``), so
each doubling of q_max computes and adds only the new harmonics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .bath import SpectralDensity
from .errors import DimensionError, DomainError, TruncationError
from .floquet import HarmonicDecomposition
from .operators import expm_general, vec

# Adaptive truncation gives up past this many harmonics.
_Q_CAP = 1_048_576
# Parseval deficits below this relative level are treated as exactly zero
# (rounding noise of a decomposition whose tail genuinely vanishes, as in
# the kick-free case where folding makes the harmonic content finite).
_PARSEVAL_FLOOR = 1e-13


@dataclass(frozen=True)
class TruncationInfo:
    q_max_used: int
    tail_bound: float


@dataclass(frozen=True)
class LindbladGenerator:
    """Assembled generator acting on column-vectorized density matrices.

    ``superop`` is expressed in the original (computational) basis;
    ``basis`` records the Floquet basis used during assembly;
    ``floquet_superop()`` transforms to that frame, where the
    population/coherence block structure is visible.
    """

    dim: int
    superop: np.ndarray
    truncation: TruncationInfo
    basis: np.ndarray

    def floquet_superop(self) -> np.ndarray:
        """``superop`` in the Floquet basis."""
        change = _floquet_change(self.basis)
        return change.conj().T @ self.superop @ change


@dataclass(frozen=True)
class RateResult:
    """A nonnegative decay rate plus the parameters that produced it."""

    eta: float
    meta: dict

    def __post_init__(self) -> None:
        if not self.eta >= 0.0:
            raise ValueError(f"decay rate must be nonnegative, got {self.eta}")


def _floquet_change(basis: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> V rho V† for the Floquet basis V."""
    return np.kron(basis.conj(), basis)


def _dissipator(pairs: np.ndarray, dim: int) -> np.ndarray:
    """Sum of r [conj(S) ⊗ S - (I ⊗ S†S + (S†S)^T ⊗ I)/2] over components,
    from T[(i,j), (k,l)] = sum r conj(S[i,j]) S[k,l]: the jump part is T with
    its middle indices swapped, the Gram part sum r S†S its trace over i = k."""
    pairs = pairs.reshape(dim, dim, dim, dim)
    jump = pairs.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    gram = np.einsum("ijil->jl", pairs)
    eye = np.eye(dim)
    return jump - 0.5 * np.kron(eye, gram) - 0.5 * np.kron(gram.T, eye)


def build_generator(
    h: HarmonicDecomposition,
    densities: Sequence[SpectralDensity],
    rel_tol: float = 1e-8,
) -> LindbladGenerator:
    """Build the generator, extending q_max until the tail bound is met.

    Parameters
    ----------
    h : HarmonicDecomposition
        Starting decomposition; its q_max is the initial truncation.
    densities : sequence of SpectralDensity
        One bath per coupling, index-aligned with ``h.couplings``.
    rel_tol : float
        Target: discarded rate weight below rel_tol times the retained
        rate weight.

    Raises
    ------
    TruncationError
        If no finite tail bound exists (unbounded density, or a tabulated
        density whose grid cannot cover the tail) or the harmonic cap is
        reached.
    """
    if len(densities) != h.n_couplings:
        raise DimensionError(
            f"{h.n_couplings} couplings but {len(densities)} spectral densities"
        )
    dim = h.dim
    cluster = h.cluster_index.reshape(-1)
    members = (cluster[:, None] == np.arange(len(h.frequencies))).astype(float)
    pairs = np.zeros((dim * dim, dim * dim), dtype=complex)
    held, scale = [0.0] * len(densities), 0.0  # Parseval, retained rate weight
    quasi = h.decomposition.quasienergies
    spread = float(np.max(quasi) - np.min(quasi)) if len(quasi) else 0.0
    q_max, coefficients = h.q_max, h.coefficients
    q_values = np.arange(-q_max, q_max + 1)
    while True:
        frequencies = h.frequencies[None, :] + q_values[:, None] * h.model.omega
        for alpha, density in enumerate(densities):
            flat = coefficients[alpha].reshape(len(q_values), dim * dim)
            power = np.abs(flat) ** 2
            held[alpha] += float(np.sum(power))
            weight = power @ members
            live = weight != 0.0
            rate = np.zeros_like(weight)
            rate[live] = density.evaluate(frequencies[live])
            scale += float(np.sum(rate * weight))
            # T += C† (r ∘ C); r[q, (k,l)] is the rate of (k,l)'s cluster.
            pairs += (flat.conj() * rate[:, cluster]).T @ flat
        tail_bound = 0.0
        # Smallest |omega + q Omega| over the discarded harmonics |q| > q_max.
        tail_start = (q_max + 1) * h.model.omega - spread
        for alpha, density in enumerate(densities):
            total = h.coupling_weight(alpha)
            leftover = max(total - held[alpha], 0.0)
            if leftover <= _PARSEVAL_FLOOR * total:
                continue
            tail_bound += leftover * density.tail_supremum(tail_start)
        if math.isinf(tail_bound) or math.isnan(tail_bound):
            raise TruncationError(
                "spectral density admits no finite bound over the harmonic "
                "tail; the generator series cannot be certified to converge"
            )
        if tail_bound <= rel_tol * scale + 1e-300:
            basis = h.decomposition.basis
            change = _floquet_change(basis)
            same_cluster = cluster[:, None] == cluster[None, :]
            superop_f = _dissipator(np.where(same_cluster, pairs, 0.0), dim)
            return LindbladGenerator(
                dim=dim,
                superop=change @ superop_f @ change.conj().T,
                truncation=TruncationInfo(q_max_used=q_max, tail_bound=tail_bound),
                basis=basis,
            )
        if q_max >= _Q_CAP:
            raise TruncationError(
                f"tail bound {tail_bound:.3e} still above target at "
                f"q_max = {q_max}"
            )
        new = np.arange(q_max + 1, min(2 * q_max, _Q_CAP) + 1)
        q_values = np.concatenate([-new[::-1], new])
        coefficients = h.harmonics(q_values)
        q_max = int(new[-1])


def _suppression_factor(x: float) -> float:
    """1 - tanh(x)/x, stable near x = 0.

    The direct form loses six digits to cancellation at small x; the
    series takes over below 0.05 with error far under 1e-15 relative.
    """
    if x < 0.05:
        x2 = x * x
        return x2 * (
            1.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 * (17.0 / 315.0 - x2 * 62.0 / 2835.0))
        )
    return 1.0 - math.tanh(x) / x


def rate_parallel_closed(period: float, t2: float, tau_c: float) -> RateResult:
    """Coherence decay rate for kicked dephasing with a Lorentzian bath.

    eta = (1/t2) [1 - (2 tau_c / period) tanh(period / (2 tau_c))].
    Monotone in the kick rate: frequent kicks (period << tau_c) suppress
    the rate as period^2/(12 tau_c^2 t2); rare kicks leave 1/t2.
    """
    if not (period > 0.0 and t2 > 0.0 and tau_c > 0.0):
        raise ValueError("period, t2, tau_c must all be positive")
    eta = _suppression_factor(period / (2.0 * tau_c)) / t2
    return RateResult(
        eta=eta,
        meta={"kind": "parallel", "period": period, "t2": t2, "tau_c": tau_c},
    )


def rate_perp_closed(omega: float, coupling: float, cutoff: float) -> RateResult:
    """Decay rate for resonant transverse coupling to a zero-temperature
    cubic-cutoff bath, as a function of the kick frequency omega.

    eta = (A omega^3 / (4 pi^2)) coth(x) / sinh(x), x = omega/(2 cutoff),
    evaluated as (A omega^3 / (2 pi^2)) z (1 + z^2) / (1 - z^2)^2 with
    z = e^{-x}, which cannot overflow at large x.
    """
    if not (omega > 0.0 and coupling > 0.0 and cutoff > 0.0):
        raise ValueError("omega, coupling, cutoff must all be positive")
    z = math.exp(-omega / (2.0 * cutoff))
    eta = (
        coupling
        * omega**3
        / (2.0 * math.pi**2)
        * z
        * (1.0 + z * z)
        / (1.0 - z * z) ** 2
    )
    return RateResult(
        eta=eta,
        meta={"kind": "perpendicular", "omega": omega, "coupling": coupling,
              "cutoff": cutoff},
    )


def combine_rates(rates: Sequence[RateResult]) -> RateResult:
    """Total rate of statistically independent channels: the plain sum."""
    return RateResult(
        eta=sum(r.eta for r in rates),
        meta={"kind": "combined", "parts": [r.meta for r in rates]},
    )


def semigroup(g: LindbladGenerator, t: float) -> np.ndarray:
    """Map e^{tL} as a superoperator matrix; defined for t >= 0 only."""
    if t < 0.0:
        raise DomainError(f"semigroup defined for t >= 0, got {t}")
    return expm_general(g.superop, t)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij M(E_ij) kron E_ij of a superoperator M.

    With column stacking, M[(a,b), (i,j)] is the (a,b) entry of M(E_ij),
    so the Choi matrix is M realigned: C[(a,i), (b,j)] = M[(a,b), (i,j)].
    """
    superop = np.asarray(superop, dtype=complex)
    dim = math.isqrt(len(superop))
    if superop.shape != (dim * dim, dim * dim):
        raise DimensionError(
            f"superoperator of shape {superop.shape} is not d^2 x d^2"
        )
    blocks = superop.reshape(dim, dim, dim, dim).transpose(1, 3, 0, 2)
    return blocks.reshape(superop.shape)


class CPTPReport(NamedTuple):
    trace_defect: float
    choi_min_eig: float
    passed: bool


def verify_cptp(
    superop: np.ndarray,
    trace_tol: float = 1e-10,
    positivity_tol: float = 1e-10,
) -> CPTPReport:
    """Check a map for trace preservation and complete positivity.

    ``trace_defect`` is the sup-norm violation of Tr(M rho) = Tr(rho) on
    the matrix-unit basis; ``choi_min_eig`` the smallest eigenvalue of the
    (Hermitized) Choi matrix.  The report passes iff defect <= trace_tol
    and min eigenvalue >= -positivity_tol.
    """
    choi = choi_matrix(superop)
    identity_dual = vec(np.eye(math.isqrt(len(choi)), dtype=complex)).conj()
    defect = float(np.max(np.abs(identity_dual @ superop - identity_dual)))
    lowest = float(scipy.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
    return CPTPReport(
        trace_defect=defect,
        choi_min_eig=lowest,
        passed=defect <= trace_tol and lowest >= -positivity_tol,
    )
