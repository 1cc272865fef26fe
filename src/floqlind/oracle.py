"""Independent brute-force validators.

Everything here is deliberately slow and simple: delta kicks are widened
into rectangular pulses and stepped through, Fourier coefficients are
taken by quadrature instead of the analytic integrals, the master
equation is integrated with fixed-step RK4, and the closed-form decay
rate is re-derived by direct harmonic summation.  The library's fast
paths are tested against these; the oracles share only basic operator
primitives (and the Floquet eigenbasis, without which harmonic
coefficients could not be compared entry by entry).

These ship with the library rather than living in the test tree so that
documented derived values can be regenerated by users.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy  # scipy.linalg loads at its first read, not at import

from .errors import DimensionError, DomainError, StabilityError, TruncationError
from .floquet import KickedModel, decompose
from .lindblad import LindbladGenerator
from .operators import as_density, expm_hermitian, require_hermitian, unvec, vec


# Steps per segment of the regularized train.  Each segment Hamiltonian
# is constant, so the counts only keep the stepping honest.
_STEPS_PER_PULSE = 10
_STEPS_PER_FREE_SEGMENT = 100


def regularized_propagator(
    m: KickedModel, t: float, pulse_width: float
) -> np.ndarray:
    """Propagator with the delta train replaced by finite pulses.

    Each kick becomes a rectangular pulse of width ``pulse_width`` and
    height strength/width over [kT - width, kT), so the state at t = nT
    has felt n complete kicks, matching the analytic propagator's
    right-continuous convention.  Converges to it at first order in the
    width, which must be positive and at most period/100.
    """
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if not pulse_width > 0.0:
        raise DomainError(f"pulse_width must be positive, got {pulse_width}")
    if pulse_width > m.period / 100.0:
        raise DomainError(
            f"pulse width {pulse_width} too coarse; need <= period/100"
        )
    pulse_h = np.asarray(m.h0, dtype=complex) + (
        m.strength / pulse_width
    ) * np.asarray(m.kick, dtype=complex)

    def stepped(h: np.ndarray, duration: float, steps: int) -> np.ndarray:
        gate = expm_hermitian(h, -duration / steps)
        out = np.eye(m.dim, dtype=complex)
        for _ in range(steps):
            out = gate @ out
        return out

    u = np.eye(m.dim, dtype=complex)
    elapsed = 0.0
    period_index = 1
    while elapsed < t - 1e-15 * m.period:
        free_end = period_index * m.period - pulse_width
        pulse_end = period_index * m.period
        if elapsed < free_end:
            span = min(free_end, t) - elapsed
            u = stepped(m.h0, span, _STEPS_PER_FREE_SEGMENT) @ u
            elapsed += span
            continue
        if t >= pulse_end:
            u = stepped(pulse_h, pulse_end - elapsed, _STEPS_PER_PULSE) @ u
            elapsed = pulse_end
            period_index += 1
        else:
            u = stepped(pulse_h, t - elapsed, _STEPS_PER_PULSE) @ u
            elapsed = t
    return u


def quadrature_harmonics(
    m: KickedModel, coupling: np.ndarray, q_max: int, n_samples: int
) -> np.ndarray:
    """Harmonics of one coupling by midpoint quadrature over one period.

    Samples the periodic part of the Heisenberg coupling on the open grid
    t_j = (j + 1/2) T / n, which never touches the kick discontinuity,
    and takes plain Riemann-Fourier sums.  The sums are evaluated in one
    FFT pass so very fine grids stay cheap; the estimator itself is still
    the unweighted midpoint rule.  Returns the Floquet-basis tensor
    indexed [q + q_max, k, l], laid out like one coupling's slice of
    ``HarmonicDecomposition.harmonics`` over q = -q_max .. q_max, so the
    two compare entrywise.
    """
    if n_samples < max(1, 8 * q_max):
        raise DomainError("need n_samples >= 8 * q_max for trustworthy sums")
    coupling = require_hermitian(coupling)
    if coupling.shape != m.h0.shape:
        raise DimensionError(
            f"coupling shape {coupling.shape} does not match model shape "
            f"{m.h0.shape}"
        )
    dec = decompose(m)
    v = dec.basis
    times = (np.arange(n_samples) + 0.5) * (m.period / n_samples)

    # The two one-sided factors of the periodic part are diagonalized once;
    # each sample is then a pair of phase profiles around fixed mixing
    # matrices rather than a fresh matrix exponential.  The averaged
    # Hamiltonian's eigenpairs are the quasienergies and the basis V.
    free_energies, free_vectors = np.linalg.eigh(m.h0)
    mixing = free_vectors.conj().T @ v
    left_phase = np.exp(-1j * np.outer(times, free_energies))
    right_phase = np.exp(1j * np.outer(times, dec.quasienergies))
    core = left_phase[:, :, None] * mixing[None, :, :] * right_phase[:, None, :]
    heisenberg = free_vectors @ core
    sampled = heisenberg.conj().swapaxes(1, 2) @ (coupling @ heisenberg)

    # Midpoint phases factor as exp(-i pi q / n) times a plain DFT kernel,
    # with negative q living in the wrapped bins.
    q_values = np.arange(-q_max, q_max + 1)
    spectrum = np.fft.fft(sampled, axis=0)
    correction = np.exp(-1j * np.pi * q_values / n_samples) / n_samples
    return spectrum[q_values % n_samples] * correction[:, None, None]


def integrate_master_equation(
    g: LindbladGenerator, rho0: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """Fixed-step classical RK4 on the vectorized master equation."""
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    norm = scipy.linalg.norm(g.superop, 2)
    if norm > 0.0 and dt > 0.01 / norm:
        raise StabilityError(
            f"dt = {dt} exceeds the stable step 0.01/||L|| = {0.01 / norm:.3e}"
        )
    matrix = g.superop
    state = vec(as_density(rho0))

    def advance(v: np.ndarray, h: float) -> np.ndarray:
        k1 = matrix @ v
        k2 = matrix @ (v + 0.5 * h * k1)
        k3 = matrix @ (v + 0.5 * h * k2)
        k4 = matrix @ (v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    whole, remainder = divmod(t, dt)
    for _ in range(int(whole)):
        state = advance(state, dt)
    if remainder > 1e-15 * max(t, dt):
        state = advance(state, remainder)
    return unvec(state)


_SERIES_REL_TOL = 1e-10


class SeriesRate(NamedTuple):
    eta: float
    tail_bound: float
    q_max_used: int


def series_rate_parallel(
    period: float,
    t2: float,
    tau_c: float,
    q_max: int | None = None,
) -> SeriesRate:
    """Kicked dephasing rate by direct summation over odd harmonics.

    eta = (4 / pi^2) sum_{q >= 0} gamma_L((q + 1/2) Omega) / (2q + 1)^2,
    where each q >= 0 term carries both of the paired components at
    +-(q + 1/2) Omega (the Lorentzian is even).  Terms decay like q^-4,
    so modest q_max suffices; with q_max = None the sum extends itself
    until a rigorous tail bound drops below _SERIES_REL_TOL of the total.
    """
    if not (period > 0.0 and t2 > 0.0 and tau_c > 0.0):
        raise DomainError("period, t2, tau_c must all be positive")
    omega = 2.0 * math.pi / period

    def partial(q_hi: int) -> float:
        q = np.arange(q_hi + 1)
        freq = (q + 0.5) * omega
        gamma = (2.0 / t2) / (1.0 + (tau_c * freq) ** 2)
        return float(
            (4.0 / math.pi**2) * np.sum(gamma / (2.0 * q + 1.0) ** 2)
        )

    def tail(q_hi: int) -> float:
        # gamma((q+1/2) Omega) <= (2/t2) min(1, 1/(tau_c (q+1/2) Omega)^2)
        # and sum_{q > Q} (2q+1)^-2 <= 1/(2(2Q+1)); the sharper quartic
        # bound integrates to 1/(12 (Q+1/2)^3).
        flat = (4.0 / math.pi**2) * (2.0 / t2) / (2.0 * (2.0 * q_hi + 1.0))
        quartic = (
            (4.0 / math.pi**2)
            * (2.0 / t2)
            / (tau_c * omega) ** 2
            / (12.0 * (q_hi + 0.5) ** 3)
        )
        return min(flat, quartic)

    if q_max is not None:
        if q_max < 0:
            raise DomainError("q_max must be nonnegative")
        return SeriesRate(eta=partial(q_max), tail_bound=tail(q_max), q_max_used=q_max)

    q_hi = 64
    while True:
        total = partial(q_hi)
        bound = tail(q_hi)
        if bound <= _SERIES_REL_TOL * total:
            return SeriesRate(eta=total, tail_bound=bound, q_max_used=q_hi)
        if q_hi >= 1 << 26:
            raise TruncationError(
                f"series tail {bound:.3e} still above target at q_max = {q_hi}"
            )
        q_hi *= 2
