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
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # scipy.linalg loads at its first read, not at import

from .errors import DimensionError, DomainError
from .operators import _right_multiply, expm_hermitian, require_hermitian

# Absolute fuzz in t/T below an integer that still snaps up to it; keeps
# kick-time sampling on the right-continuous branch despite float division.
_PERIOD_SNAP = 1e-9
_CHUNK_ELEMENTS = 1 << 14  # Fourier integrals per chunk of harmonics
# Up to this many Floquet-basis elements d², the harmonics are einsum's
# inner axis: measured faster at d = 2 and 3, even at 4, slower above.
_HARMONICS_INNER = 9
_BOHR_TOL = 1e-9  # Bohr-cluster tolerance, in units of Omega


def floor_frac(t, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Split t into (n, frac) with t = (n + frac) * period, 0 <= frac < 1.

    Elementwise for an array t; n and frac are floats.  Times meant to be
    exact multiples of the period land on the "just after the kick" branch
    (n, 0.0): values of t/period within 1e-9 below an integer snap up to
    it, and so does anything within two ulps of t/period on either side,
    the rounding t/period itself carries at long horizons.  This is the
    one check of the time domain: raises DomainError when any t is
    negative or not finite, or any t/period is not finite; -0.0 is a
    valid time.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):  # a non-finite ratio raises below; an inf ulp snaps
        raw = t / period
        fuzz = 2.0 * np.spacing(np.abs(raw))
    # Test t itself, not the ratio: -5e-324 / 2 rounds to -0.0.
    bad = t[~((t >= 0.0) & np.isfinite(raw))]
    if bad.size:
        raise DomainError(
            f"time must be >= 0 with t/period finite, got t = {bad[0]} "
            f"at period {period}"
        )
    n = np.floor(raw)
    frac = raw - n
    up = frac > 1.0 - np.maximum(_PERIOD_SNAP, fuzz)
    n = np.where(up, n + 1.0, n)
    frac = np.where(up | (frac <= fuzz), 0.0, frac)
    return n[()], frac[()]


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
        Kick period T > 0, finite, with 2 pi / T finite too.
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
            raise DomainError(f"period must be positive and finite, got {self.period}")
        if math.isinf(self.omega):
            raise DomainError(
                f"period {self.period!r} is too small: the kick frequency "
                "2 pi / period overflows"
            )
        if not math.isfinite(self.strength):
            raise DomainError(f"strength must be finite, got {self.strength}")
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
    """The Floquet frame of a kicked model.

    ``basis`` holds the Floquet eigenvectors as columns, orthonormal, in a
    deterministic gauge (largest-magnitude entry real positive), ordered
    by decreasing quasienergy.  ``quasienergies`` span less than Omega
    (see ``decompose`` for the zone).  ``frequencies`` and
    ``cluster_index`` are the Bohr clusters of eps_k - eps_l (see
    ``_cluster_frequencies``), and ``change`` is the superoperator of
    rho -> V rho V†.  ``free_energies`` and ``free_basis`` are the
    eigendecomposition of H0, the free evolution between kicks.
    """

    model: KickedModel
    quasienergies: np.ndarray
    basis: np.ndarray
    free_energies: np.ndarray
    free_basis: np.ndarray
    frequencies: np.ndarray
    cluster_index: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def change(self) -> np.ndarray:
        """Superoperator of rho -> V rho V† for the Floquet basis V."""
        return np.kron(self.basis.conj(), self.basis)


def decompose(m: KickedModel) -> FloquetDecomposition:
    """Diagonalize the Floquet operator and cluster its Bohr frequencies.

    Uses the complex Schur form, which returns an orthonormal set of
    vectors even for (numerically) degenerate eigenvalues; for the
    unitary U(T) the Schur factor is diagonal up to rounding, so the
    columns are eigenvectors.  Quasienergies are folded into the zone
    (-Omega/2, Omega/2].  Where two of them straddle its edge closer than
    the Bohr-cluster tolerance, the cut moves into the widest gap between
    neighbours, and those at or below that gap are raised by Omega, so a
    Bohr cluster never splits across the cut.
    """
    schur_t, z = scipy.linalg.schur(floquet_operator(m), output="complex")
    eigenvalues = np.diag(schur_t)

    omega = m.omega
    # The phase is libm's atan2(imag, real), as in cmath.phase: np.angle's
    # bits depend on numpy's SIMD level.  It lies in [-pi, pi], so quasi
    # sits in [-Omega/2, Omega/2]; the lower edge moves to the upper for
    # the zone (-Omega/2, Omega/2].
    phases = map(math.atan2, eigenvalues.imag.tolist(), eigenvalues.real.tolist())
    quasi = -np.fromiter(phases, float) / m.period
    quasi = np.where(quasi <= -0.5 * omega, quasi + omega, quasi)
    order = np.argsort(-quasi, kind="stable")
    quasi = quasi[order]
    if len(quasi) > 1 and quasi[-1] + omega - quasi[0] < _BOHR_TOL * omega:
        lower = quasi[np.argmax(quasi[:-1] - quasi[1:]) + 1]
        quasi = np.where(quasi <= lower, quasi + omega, quasi)
        recut = np.argsort(-quasi, kind="stable")
        order, quasi = order[recut], quasi[recut]

    basis = z[:, order].copy()
    for k in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, k])))
        phase = basis[pivot, k] / abs(basis[pivot, k])
        basis[:, k] /= phase

    energies, free_basis = scipy.linalg.eigh(m.h0)
    frequencies, cluster_index = _cluster_frequencies(quasi, omega)

    for arr in (quasi, basis, energies, free_basis, frequencies, cluster_index):
        arr.flags.writeable = False
    return FloquetDecomposition(
        model=m,
        quasienergies=quasi,
        basis=basis,
        free_energies=energies,
        free_basis=free_basis,
        frequencies=frequencies,
        cluster_index=cluster_index,
    )


def _unitary(dec: FloquetDecomposition, n, frac) -> np.ndarray:
    """(W e^{-i E T frac} W†)(V e^{-i eps T n} V†): n kicks, then frac of a period.

    ``n`` and ``frac`` may be equal-shape arrays; the result then has one
    (d, d) matrix per entry.  Its callers are ``propagator`` and
    ``propagator_left_limit``; ``dynamics.evolve`` applies the same
    factors to states as phases and never forms U.
    """
    period = dec.model.period
    w, v = dec.free_basis, dec.basis
    n, frac = np.asarray(n)[..., None, None], np.asarray(frac)[..., None, None]
    free = w * np.exp(-1j * period * frac * dec.free_energies)
    kicks = v * np.exp(-1j * period * n * dec.quasienergies)
    return _right_multiply(free, w.conj().T) @ _right_multiply(kicks, v.conj().T)


def _before_kicks(n, frac):
    """(n, frac, at_kick) for the limit from below: at a kick time t = nT > 0
    it is a full free segment after n - 1 kicks."""
    at_kick = (np.asarray(frac) == 0.0) & (np.asarray(n) > 0)
    return np.where(at_kick, n - 1, n), np.where(at_kick, 1.0, frac), at_kick


def propagator(dec: FloquetDecomposition, t: float) -> np.ndarray:
    """Exact propagator U(t) of the decomposed model, right-continuous at
    kicks; ``decompose(m)`` gives ``dec`` for a model m."""
    return _unitary(dec, *floor_frac(t, dec.model.period))


def propagator_left_limit(dec: FloquetDecomposition, t: float) -> np.ndarray:
    """Limit of U(s) as s -> t from below for the decomposed model; differs
    from U(t) only at kicks."""
    n, frac, _ = _before_kicks(*floor_frac(t, dec.model.period))
    return _unitary(dec, n, frac)


def _cluster_frequencies(quasienergies, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Group all pairwise quasienergy differences into clusters.

    Returns (representatives, index) where index[k, l] labels the cluster
    of eps_k - eps_l and representatives holds the cluster means.  One
    numpy pass over the sorted differences: each gap above the
    Bohr-cluster tolerance starts a new cluster, so differences chained
    by closer neighbours share a label.  Each mean is the cluster's
    ``np.add.reduceat`` sum over its size.  A 0.0 leads every cluster's
    segment: ``reduceat`` starts a sum from its segment's first value,
    ``np.add.reduce`` (so ``np.mean``) from 0.0, and with the lead the
    pairwise summation groups the members as ``np.mean`` does.
    """
    d = len(quasienergies)
    flat = (quasienergies[:, None] - quasienergies[None, :]).reshape(-1)
    order = np.argsort(flat)
    ordered = flat[order]
    starts = np.ones(d * d, dtype=bool)
    starts[1:] = np.diff(ordered) > _BOHR_TOL * omega
    labels = np.empty(d * d, dtype=int)
    labels[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    led = np.insert(ordered, first, 0.0)
    sums = np.add.reduceat(led, first + np.arange(len(first)))
    return sums / np.diff(first, append=d * d), labels.reshape(d, d)


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Fourier data of Heisenberg-picture coupling operators.

    For each coupling S the interaction-picture operator splits as

        U(t)† S U(t) = sum_{omega, q} S(omega, q) e^{i (omega + q Omega) t}

    where omega runs over quasienergy differences and q over harmonics of
    the kick frequency Omega.  ``harmonics(q_values)[alpha, i, k, l]``
    holds the Floquet-basis matrix elements of harmonic q_values[i]; the
    (omega, q) component matrices are its slices masked by the
    decomposition's ``cluster_index``.  It gives any q from the weights
    and poles of ``_poles`` and their phases and sines (``_pole_form``),
    formed on the first call, not at construction, and kept: the one
    cache.  ``q_max`` sets the harmonics |q| <= q_max of build_generator's
    first round.  Components obey S(omega, q)† = S(-omega, -q) and
    [Hbar, S(omega, q)] = omega S(omega, q).
    """

    decomposition: FloquetDecomposition
    couplings: tuple[np.ndarray, ...]
    q_max: int

    @property
    def model(self) -> KickedModel:
        return self.decomposition.model

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    @property
    def n_couplings(self) -> int:
        return len(self.couplings)

    @cached_property
    def _weighted_poles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _pole_form(*_poles(self.decomposition, list(self.couplings)))

    def harmonics(self, q_values: np.ndarray) -> np.ndarray:
        """Coefficients [alpha, i, k, l] at harmonic q_values[i], as a new array;
        q_values of a float dtype raise TypeError, even when integral."""
        q_values = np.asarray(q_values)
        if q_values.dtype.kind not in "iu":
            raise TypeError(f"q_values must be integers, got dtype {q_values.dtype}")
        values = _fourier_tensor(*self._weighted_poles, q_values)
        return values.reshape(values.shape[:2] + (self.dim, self.dim))


def _poles(
    dec: FloquetDecomposition, couplings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w[x, p, k] and poles z[p, k] of the coupling harmonics.

    Expanding P(t) in the eigenbases of H0 and Hbar reduces the
    Floquet-basis element k = (k, l) of V† P(t)† S_x P(t) V to a sum of
    pure exponentials over p = (a, b),

        sum_p w[x, p, k] e^{2 pi i z[p, k] t / T},

    with z = mu T / 2 pi and mu = (E_a - E_b) + (eps_l - eps_k), so its
    harmonic q is sum_p w[x, p, k] int_0^1 e^{2 pi i (z - q) x} dx.
    """
    energies, h0_basis = dec.free_energies, dec.free_basis
    overlap = dec.basis.conj().T @ h0_basis  # overlap[k, a] = <phi_k | a>
    quasi = dec.quasienergies
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
    z = mu * (dec.model.period / (2.0 * math.pi))
    return weights.reshape((len(couplings),) + mu.shape), z


def _pole_form(
    weights: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-pole factors of ``_fourier_tensor``: (parts, sine, z).

    With the weights and poles of ``_poles`` and z = n + r for an integer
    n, each Fourier integral is

        int_0^1 e^{2 pi i (z - q) x} dx = e^{i pi r} sin(pi r) / (pi (z - q)),

    which is e^{i pi r} sinc(r) at q = n and, where r = 0, the Kronecker
    delta of q and n.  Any integer n gives this identity; n = round(z)
    keeps |r| <= 1/2, and r = z - n is exact.  So the phase and the sine
    are taken once per pole, of an argument that carries no rounding
    from q.  The phase is folded into the weights, whose real and
    imaginary parts are stacked in ``parts`` [2x, p, k], and ``sine`` is
    sin(pi r) / pi.
    """
    r = z - np.round(z)
    weights = weights * np.exp(1j * math.pi * r)
    parts = np.concatenate([weights.real, weights.imag])
    return parts, np.sin(math.pi * r) / math.pi, z


def _fourier_tensor(
    parts: np.ndarray, sine: np.ndarray, z: np.ndarray, q_values: np.ndarray
) -> np.ndarray:
    """Closed-form Fourier coefficients of V† P(t)† S P(t) V, in pole form,
    indexed [x, q, k] with k the flattened Floquet-basis element.

    From the factors of ``_pole_form``, each harmonic costs one real
    subtraction z - q and one division, each rounded once, so the error
    does not grow with |q| (through c = mu T - 2 pi q, the same integral
    e^{ic/2} sinc(c / 2 pi) carries c's rounding, which does).  This is
    exact for every q, unlike quadrature, which struggles with the
    sawtooth discontinuity.
    """
    # One real contraction per chunk, over the stacked parts.  In either
    # layout einsum sums each harmonic over p in order, one multiply-add
    # per term, so neither the layout nor the chunk (nor any q_values
    # split) moves a bit.  With few elements k the harmonics are the inner
    # axis, written through a transposed view: the result stays
    # C-contiguous in [x, q, k], the memory order build_generator's
    # np.sum(power) adds in.  Chunks bound the temporaries.
    n_q, n_k = len(q_values), z.shape[1]
    out = np.empty((2, len(parts) // 2, n_q, n_k))
    sums = out.reshape(len(parts), n_q, n_k)
    step = max(1, _CHUNK_ELEMENTS // max(z.size, 1))
    inner = n_k <= _HARMONICS_INNER
    with np.errstate(invalid="ignore"):  # 0/0 where gap is 0, set below
        for start in range(0, n_q, step):
            q = q_values[start : start + step]
            chunk = sums[:, start : start + step]
            if inner:  # gap [p, k, q], written through the [x, k, q] view
                gap, numerator = z[:, :, None] - q, sine[:, :, None]
                spec, chunk = "xpk,pkq->xkq", chunk.transpose(0, 2, 1)
            else:  # gap [q, p, k]
                gap, numerator = z - q[:, None, None], sine
                spec = "xpk,qpk->xqk"
            # gap is 0 only where z is an integer and q = z: the integral is 1.
            exact = gap == 0.0
            pole = np.divide(numerator, gap, out=gap)
            pole[exact] = 1.0
            np.einsum(spec, parts, pole, out=chunk)
    return out[0] + 1j * out[1]


def harmonic_decomposition(
    m: KickedModel, couplings: list[np.ndarray], q_max: int
) -> HarmonicDecomposition:
    """Closed-form harmonic decomposition of coupling operators.

    Parameters
    ----------
    m : KickedModel
    couplings : list of Hermitian operators
    q_max : int
        Harmonics |q| <= q_max are the first truncation; an integer >= 1
        (a float raises TypeError, even when integral).
    """
    q_max = operator.index(q_max)
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    validated = [require_hermitian(s) for s in couplings]
    for s in validated:
        if s.shape != m.h0.shape:
            raise DimensionError(
                f"coupling shape {s.shape} does not match model dimension {m.dim}"
            )
    return HarmonicDecomposition(
        decomposition=decompose(m), couplings=tuple(validated), q_max=q_max
    )
