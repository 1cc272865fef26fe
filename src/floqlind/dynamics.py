"""State evolution and the closed-form two-level trajectories.

The full dynamics factorizes as rho(t) = U(t) [e^{tL} rho0] U(t)†: a
time-independent semigroup in the interaction picture, dressed by the
kicked-model unitary.  Three frames are exposed:

* ``interaction`` -- e^{tL} rho0 alone;
* ``rotating``    -- U(t) e^{tL} rho0 U(t)†, the frame in which the
  kicked model is defined;
* ``lab``         -- additionally undoes the drive-carrier rotation
  e^{-i omega_ext t sigma_z / 2} (two-level systems only).

The closed forms implement the exactly solvable magic-angle cases: pi
kicks about x with either dephasing (sigma_z) coupling to a Lorentzian
bath or transverse coupling to a zero-temperature phonon bath at
resonance.  Both reduce to three motions: precession, an e^{-2 eta t}
channel, and an e^{-eta t} channel whose sign flips with each kick.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import SpectralDensity
from .errors import (
    DomainError,
    UnsupportedFrameError,
    UnsupportedRegimeError,
)
from .floquet import (
    KickedModel,
    decompose,
    floor_frac,
    propagator,
    propagator_left_limit,
)
from .lindblad import LindbladGenerator
from .operators import as_density, bloch_from_density, expm_general, unvec, vec


@dataclass(frozen=True)
class TLSParams:
    """Two-level scenario parameters for the closed-form trajectories.

    ``eta`` is the decay coefficient actually in use; it is supplied
    rather than recomputed so the closed forms can be driven by either
    the analytic rates or series/generator-extracted ones.
    """

    omega0: float
    omega_ext: float
    period: float
    eta: float

    def __post_init__(self) -> None:
        if not self.period > 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")

    @property
    def delta(self) -> float:
        """Detuning omega0 - omega_ext."""
        return self.omega0 - self.omega_ext


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    frame: str
    left_states: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or (len(times) > 1 and np.any(np.diff(times) <= 0.0)):
            raise ValueError("times must be a strictly increasing 1-D sequence")
        object.__setattr__(self, "times", times)

    def bloch(self) -> np.ndarray:
        """(N, 3) Bloch components; two-level trajectories only."""
        return np.array([bloch_from_density(rho) for rho in self.states])


_FRAMES = ("interaction", "rotating", "lab")


def evolve(
    m: KickedModel,
    g: LindbladGenerator,
    rho0: np.ndarray,
    times,
    frame: str = "rotating",
    omega_ext: float | None = None,
    emit_left_limits: bool = False,
) -> Trajectory:
    """Propagate rho0 through the factorized dynamics at the given times.

    Parameters
    ----------
    m, g : model and its assembled generator.
    rho0 : initial density matrix.
    times : strictly increasing sample times, all >= 0.
    frame : "interaction", "rotating", or "lab".
    omega_ext : carrier frequency; required for the lab frame.
    emit_left_limits : also record the limit from below at each time
        (differs from the right-continuous value exactly at kick times).
    """
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}, got {frame!r}")
    if frame == "lab":
        if m.dim != 2:
            raise UnsupportedFrameError(
                "lab frame is defined through the sigma_z carrier rotation "
                f"and needs a two-level system, got dimension {m.dim}"
            )
        if omega_ext is None:
            raise ValueError("lab frame requires omega_ext")
    rho0 = as_density(rho0)
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & np.isfinite(times)):
        raise DomainError("evolution times must be finite and nonnegative")

    dec = decompose(m)
    rho_vec = vec(rho0)
    states = np.empty((len(times), m.dim, m.dim), dtype=complex)
    left_states = np.empty_like(states) if emit_left_limits else None
    for i, t in enumerate(times):
        t = float(t)
        interaction = unvec(expm_general(g.superop, t) @ rho_vec)
        if frame == "interaction":
            states[i] = as_density(interaction)
            if left_states is not None:
                left_states[i] = states[i]
            continue
        # The lab carrier e^{-i omega_ext t sigma_z / 2} is a diagonal phase.
        carrier = 1.0 if frame == "rotating" else np.exp(
            -0.5j * omega_ext * t * np.array([[1.0], [-1.0]])
        )
        u = carrier * propagator(dec, t)
        states[i] = as_density(u @ interaction @ u.conj().T)
        if left_states is not None:
            u = carrier * propagator_left_limit(dec, t)
            left_states[i] = as_density(u @ interaction @ u.conj().T)
    return Trajectory(times=times, states=states, frame=frame,
                      left_states=left_states)


def _decay_split(eta: float, t: float, n: int) -> tuple[float, float]:
    slow = (-1.0) ** n * math.exp(-eta * t)
    fast = math.exp(-2.0 * eta * t)
    return slow, fast


def closed_form_parallel(p: TLSParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact lab-frame state for the dephasing-coupled kicked TLS.

    The transverse components rotate with the accumulated phase
    phi(t) = omega_ext t + delta T ({t/T} - 1/2) and decay at 2 eta, while
    an e^{-eta t} channel flips sign with each kick; the longitudinal
    component follows (-1)^n e^{-eta t}.
    """
    if t < 0.0:
        raise DomainError(f"closed form defined for t >= 0, got {t}")
    x0 = bloch_from_density(as_density(rho0))
    n, frac = floor_frac(t, p.period)
    slow, fast = _decay_split(p.eta, t, n)

    phase_now = p.omega_ext * t + p.delta * p.period * (frac - 0.5)
    phase_start = -0.5 * p.delta * p.period
    along = x0[0] * math.cos(phase_start) + x0[1] * math.sin(phase_start)
    across = x0[0] * math.sin(phase_start) - x0[1] * math.cos(phase_start)

    transverse = cmath.exp(1j * phase_now) * (fast * along - 1j * slow * across)
    coherence = 0.5 * transverse  # rho[1, 0]
    population = 0.5 * (1.0 + slow * x0[2])
    return np.array(
        [[population, np.conj(coherence)], [coherence, 1.0 - population]],
        dtype=complex,
    )


def closed_form_perp(p: TLSParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact lab-frame state for the transverse-coupled kicked TLS.

    Valid on resonance only (delta = 0, zero temperature): off resonance
    the generator no longer closes in this simple form.
    """
    if p.delta != 0.0:
        raise UnsupportedRegimeError(
            f"transverse closed form holds only at delta = 0, got {p.delta}"
        )
    if t < 0.0:
        raise DomainError(f"closed form defined for t >= 0, got {t}")
    x0 = bloch_from_density(as_density(rho0))
    n, _ = floor_frac(t, p.period)
    slow, fast = _decay_split(p.eta, t, n)

    x1_int = fast * x0[0]
    x2_int = slow * x0[1]
    cos_t, sin_t = math.cos(p.omega0 * t), math.sin(p.omega0 * t)
    x1 = cos_t * x1_int - sin_t * x2_int
    x2 = sin_t * x1_int + cos_t * x2_int
    x3 = slow * x0[2]
    coherence = 0.5 * (x1 + 1j * x2)
    return np.array(
        [[0.5 * (1.0 + x3), np.conj(coherence)], [coherence, 0.5 * (1.0 - x3)]],
        dtype=complex,
    )


def t1_time(sd: SpectralDensity, omega0: float, beta: float) -> float:
    """Spin-lattice relaxation time [(1 + e^{-beta omega0}) gamma(omega0)]^{-1}.

    Returns +inf when the density vanishes at the transition frequency
    (no resonant bath modes, no relaxation).
    """
    rate = sd.evaluate(omega0)
    if rate == 0.0:
        return math.inf
    exponent = 0.0 if omega0 == 0.0 else beta * omega0
    return 1.0 / ((1.0 + math.exp(-exponent)) * rate)


def t2_prime(t1: float, t2: float) -> float:
    """Combined decoherence time: 1/T2' = 1/T2 + 1/(2 T1)."""
    if not (t1 > 0.0 and t2 > 0.0):
        raise ValueError("T1 and T2 must be positive")
    if math.isinf(t1) and math.isinf(t2):
        return math.inf
    inv = (0.0 if math.isinf(t2) else 1.0 / t2) + (
        0.0 if math.isinf(t1) else 0.5 / t1
    )
    return 1.0 / inv
