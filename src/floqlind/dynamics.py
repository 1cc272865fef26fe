"""State evolution and the closed-form two-level trajectories.

The full dynamics factorizes as rho(t) = U(t) [e^{tL} rho0] U(t)†: a
time-independent semigroup in the interaction picture, dressed by the
kicked-model unitary.  Three frames are exposed:

* ``interaction`` -- e^{tL} rho0 alone;
* ``rotating``    -- U(t) e^{tL} rho0 U(t)†, the frame in which the
  kicked model is defined;
* ``lab``         -- additionally undoes the drive-carrier rotation
  e^{-i omega_ext t sigma_z / 2} (two-level systems only).

``evolve`` handles all sample times at once.  The semigroup comes from
the generator's Bohr blocks (``lindblad.BohrBlocks``), exponentiated
in one call per block size for every time, which keeps the trace and
Hermiticity exact at any horizon; it gives the Floquet-basis state
rho_F.  One ``floor_frac`` call splits all the times into (n, frac).
Every per-time factor of U(t) = W e^{-i E T frac} W† V e^{-i eps T n} V†
is diagonal in a fixed basis, so the state is dressed by phases: per
time, elementwise products with outer products of the phase vectors
e^{-i eps T n}, e^{-i E T frac} and, in the lab frame, the carrier's;
the constant V, M = W† V and W act on the whole stack at once
(``operators._conjugate``).  Left limits are recomputed only at kick
times, from the phases at (n - 1, frac = 1); elsewhere they are copies
of the state.  Every returned state passes one batched Hermiticity,
trace and positivity check.

The closed forms implement the exactly solvable magic-angle cases: pi
kicks about x with either dephasing (sigma_z) coupling to a Lorentzian
bath or transverse coupling to a zero-temperature phonon bath at
resonance.  Both reduce to one kicked motion, which ``echo.echo_signal``
shares: precession by the echo phase, an e^{-2 eta t} channel along it,
and an e^{-eta t} channel across it and along axis 3 whose sign flips
with each kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import _math_map
from .errors import InputError, NumericFailure
from .errors import UnsupportedFrameError, UnsupportedRegimeError
from .floquet import KickedModel, _before_kicks, floor_frac
from .lindblad import LindbladGenerator
from .operators import (
    _conjugate, as_densities, as_density, bloch_from_density,
    density_from_bloch, vec,
)


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
        for name in ("omega0", "omega_ext", "period", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.period > 0.0:
            raise InputError(f"period must be positive, got {self.period}")
        if not self.eta >= 0.0:
            raise InputError(f"eta must be nonnegative, got {self.eta}")

    @property
    def delta(self) -> float:
        """Detuning omega0 - omega_ext."""
        return self.omega0 - self.omega_ext


def _sample_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0):
        raise InputError("times must be a strictly increasing 1-D sequence")
    return times


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    frame: str
    left_states: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _sample_times(self.times))

    def bloch(self) -> np.ndarray:
        """(N, 3) Bloch components; two-level trajectories only."""
        return bloch_from_density(self.states)


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
    m, g : model and its assembled generator, dressed with U(t) from
        ``g.decomposition``, whose model must be ``m`` itself.
    rho0 : initial density matrix.
    times : strictly increasing sample times, all >= 0.
    frame : "interaction", "rotating", or "lab".
    omega_ext : carrier frequency; required for the lab frame.
    emit_left_limits : also record the limit from below at each time
        (differs from the right-continuous value exactly at kick times).

    The interaction frame is V rho_F V†; the rotating frame is
    W e^{-i E tau} M (e^{-i eps n T} rho_F e^{i eps n T}) M† e^{i E tau} W†
    with tau = frac T and M = W† V, which is U(t) rho_I U(t)† with no
    per-time matrix product; the lab frame adds the carrier's phases.

    Raises NumericFailure naming the first t where e^{tL} rho0, or a
    phase of U(t) or of the carrier, is not finite.
    """
    dec = g.decomposition
    if m is not dec.model:
        raise InputError("m is not the model the generator was built from")
    if frame not in _FRAMES:
        raise UnsupportedFrameError(f"frame must be one of {_FRAMES}, got {frame!r}")
    if frame == "lab":
        if dec.dim != 2:
            raise UnsupportedFrameError(
                "lab frame is defined through the sigma_z carrier rotation "
                f"and needs a two-level system, got dimension {dec.dim}"
            )
        if omega_ext is None:
            raise InputError("lab frame requires omega_ext")
    rho0 = as_density(rho0)
    n, frac = floor_frac(times, dec.model.period)
    times = _sample_times(times)

    # e^{tL} rho0 in the Floquet basis, one matrix rho_F per time, as the
    # transposed view of the column-stacked vectors.
    dim, period = dec.dim, dec.model.period
    v, w = dec.basis, dec.free_basis
    x0 = vec(v.conj().T @ rho0 @ v)[:, None]
    floquet_states = g.blocks.propagate(x0, times)[..., 0]
    floquet_states = floquet_states.reshape(len(times), dim, dim).swapaxes(1, 2)
    if frame == "interaction":
        states = as_densities(_conjugate(floquet_states, v))
        left_states = states.copy() if emit_left_limits else None
        return Trajectory(times=times, states=states, frame=frame,
                          left_states=left_states)

    # M = W† V of the docstring; per time, only the phase vectors change.
    mix = w.conj().T @ v

    def dressed(n, frac, at):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            phases = [
                np.exp(-1j * period * n[at, None] * dec.quasienergies),
                np.exp(-1j * period * frac[at, None] * dec.free_energies),
            ]
            if frame == "lab":  # the carrier e^{-i omega_ext t sigma_z / 2}
                phases.append(np.exp(
                    -0.5j * omega_ext * times[at, None] * np.array([1.0, -1.0])
                ))
        if not all(np.isfinite(p.view(float)).all() for p in phases):
            finite = np.isfinite(np.hstack(phases)).all(axis=1)
            raise NumericFailure(
                f"the dressing phases at t = {float(times[at][np.argmin(finite)])!r}"
                " are not finite: an angle overflowed"
            )
        kicks, free, *carrier = phases
        state = _phased(floquet_states[at], kicks)
        state = _conjugate(_phased(_conjugate(state, mix), free), w)
        if carrier:
            state = _phased(state, carrier[0])
        return as_densities(state)

    states = dressed(n, frac, slice(None))
    left_states = None
    if emit_left_limits:
        left_states = states.copy()
        n_left, frac_left, at_kick = _before_kicks(n, frac)
        if at_kick.any():
            left_states[at_kick] = dressed(n_left, frac_left, at_kick)
    return Trajectory(times=times, states=states, frame=frame,
                      left_states=left_states)


def _phased(stack: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """diag(p) x diag(p)† for each matrix x of a stack (N, d, d) and the
    matching row p of phases (N, d), as one elementwise product."""
    return stack * (phases[:, :, None] * phases[:, None, :].conj())


def _echo_offset(period, frac):
    """T ({t/T} - 1/2), the phase per unit detuning; zero at the echoes."""
    return period * (frac - 0.5)


def _kicked_motion(eta: float, t, n, cos_phi, sin_phi, x0):
    """Bloch vector at times t after n kicks, elementwise over arrays.  x0's
    transverse part is taken along and across the echo phase phi, given by
    (cos, sin) phi or their ensemble averages: e^{-2 eta t} along,
    (-1)^n e^{-eta t} across and x3."""
    t = np.asarray(t)
    with np.errstate(over="ignore"):  # e^-inf = 0, the limit
        slow = (1.0 - 2.0 * (np.asarray(n) % 2)) * _math_map(math.exp, -eta * t)
        fast = _math_map(math.exp, -2.0 * eta * t)
    return (
        fast * cos_phi * x0[0] - slow * sin_phi * x0[1],
        fast * sin_phi * x0[0] + slow * cos_phi * x0[1],
        slow * x0[2],
    )


def closed_form_parallel(p: TLSParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact lab-frame state for the dephasing-coupled kicked TLS.

    The transverse components rotate with the accumulated phase
    phi(t) = omega_ext t + delta T ({t/T} - 1/2) and decay at 2 eta, while
    an e^{-eta t} channel flips sign with each kick; the longitudinal
    component follows (-1)^n e^{-eta t}.
    """
    n, frac = floor_frac(t, p.period)
    t, frac = float(t), float(frac)  # an overflow gives inf, with no warning
    x = bloch_from_density(as_density(rho0))
    phi = p.omega_ext * t + p.delta * _echo_offset(p.period, frac)
    start = p.delta * _echo_offset(p.period, 0.0)  # the echo phase at t = 0
    if not all(map(math.isfinite, (phi, start, 2.0 * p.eta * t))):
        raise NumericFailure(f"the echo phase or decay exponent at t = {t!r} overflowed")
    cos_0, sin_0 = math.cos(start), math.sin(start)
    x0 = (cos_0 * x[0] + sin_0 * x[1], cos_0 * x[1] - sin_0 * x[0], x[2])
    motion = _kicked_motion(p.eta, t, n, math.cos(phi), math.sin(phi), x0)
    return density_from_bloch(np.array(motion, dtype=float))


def closed_form_perp(p: TLSParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact lab-frame state for the transverse-coupled kicked TLS.

    Valid on resonance only (delta = 0, zero temperature): off resonance
    the generator no longer closes in this simple form.  On resonance the
    motion is that of ``closed_form_parallel``, with this coupling's eta.
    """
    if p.delta != 0.0:
        raise UnsupportedRegimeError(
            f"transverse closed form holds only at delta = 0, got {p.delta}"
        )
    return closed_form_parallel(p, rho0, t)
