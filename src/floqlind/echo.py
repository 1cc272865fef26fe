"""Ensemble averaging over random detuning and bath-time extraction.

In an inhomogeneous field every spin carries its own detuning delta,
entering the transverse motion only through the accumulated phase
phi(t) = omega_ext t + delta T ({t/T} - 1/2).  The decay factors are
detuning independent, so ensemble averaging touches the phase alone and
reduces to the detuning distribution's characteristic function evaluated
at u = T ({t/T} - 1/2).  At half-integer multiples of the period u = 0:
every spin rephases and the single-spin transverse magnitude returns --
the echo.

``extract_tau_c`` inverts the kicked dephasing rate: measuring the decay
rate at one slow and one fast kicking period determines both the bare
dephasing time and the bath correlation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .dynamics import TLSParams, _decay_split
from .errors import InconsistentDataError, OutOfRangeError
from .floquet import floor_frac
from .lindblad import _suppression_factor


@dataclass(frozen=True)
class GaussianDetuning:
    """delta ~ Normal(0, sigma^2)."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")

    def characteristic_function(self, u: float) -> complex:
        return complex(math.exp(-0.5 * (self.sigma * u) ** 2))

    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class UniformDetuning:
    """delta uniform on [-halfwidth, halfwidth]."""

    halfwidth: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.halfwidth < math.inf:
            raise ValueError(
                f"halfwidth must be nonnegative and finite, got {self.halfwidth}"
            )

    def characteristic_function(self, u: float) -> complex:
        return complex(np.sinc(self.halfwidth * u / math.pi))

    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        return rng.uniform(-self.halfwidth, self.halfwidth, size)


@dataclass(frozen=True)
class DiscreteDetuning:
    """Weighted atoms; weights must be nonnegative and sum to one."""

    deltas: np.ndarray
    weights: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        deltas = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if deltas.shape != weights.shape or deltas.ndim != 1:
            raise ValueError("deltas and weights must be equal-length 1-D")
        if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(weights))):
            raise ValueError("deltas and weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {np.sum(weights)}, expected 1")
        deltas.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "weights", weights)

    def characteristic_function(self, u: float) -> complex:
        return complex(np.sum(self.weights * np.exp(1j * self.deltas * u)))

    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        return rng.choice(self.deltas, size=size, p=self.weights)


DetuningEnsemble = GaussianDetuning | UniformDetuning | DiscreteDetuning


def averaged_phase(
    e: DetuningEnsemble, p: TLSParams, t: float
) -> tuple[float, float]:
    """(<cos phi(t)>, <sin phi(t)>) over the detuning ensemble.

    <e^{i phi}> = e^{i omega_ext t} C(T({t/T} - 1/2)) with C the
    ensemble's characteristic function, so the average is exact, not
    sampled.  At t = (n + 1/2) T the argument vanishes, C = 1, and the
    phase coherence is fully restored.
    """
    _, frac = floor_frac(t, p.period)
    u = p.period * (frac - 0.5)
    mean = np.exp(1j * p.omega_ext * t) * e.characteristic_function(u)
    return float(mean.real), float(mean.imag)


@dataclass(frozen=True)
class EchoSignal:
    times: np.ndarray
    avg_cos: np.ndarray
    avg_sin: np.ndarray
    transverse: np.ndarray  # (N, 2): ensemble-averaged (x1, x2)


def echo_signal(
    e: DetuningEnsemble, p: TLSParams, x0, times
) -> EchoSignal:
    """Ensemble-averaged transverse Bloch components.

    The initial transverse components are referenced to the echo phase
    (phase zero at the rephasing points), so only the averaged phase
    factors and the two decay channels appear:

        <x1> = e^{-2 eta t} <cos phi> x1(0) - (-1)^n e^{-eta t} <sin phi> x2(0)
        <x2> = e^{-2 eta t} <sin phi> x1(0) + (-1)^n e^{-eta t} <cos phi> x2(0)
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.asarray(times, dtype=float)
    avg_cos = np.empty(len(times))
    avg_sin = np.empty(len(times))
    transverse = np.empty((len(times), 2))
    for i, t in enumerate(times):
        cos_phi, sin_phi = averaged_phase(e, p, float(t))
        n, _ = floor_frac(float(t), p.period)
        slow, fast = _decay_split(p.eta, t, n)
        avg_cos[i] = cos_phi
        avg_sin[i] = sin_phi
        transverse[i, 0] = fast * cos_phi * x0[0] - slow * sin_phi * x0[1]
        transverse[i, 1] = fast * sin_phi * x0[0] + slow * cos_phi * x0[1]
    return EchoSignal(
        times=times, avg_cos=avg_cos, avg_sin=avg_sin, transverse=transverse
    )


@dataclass(frozen=True)
class ExtractionResult:
    """Bath parameters inferred from two rate measurements.

    ``degenerate`` flags a fit pinned at the tiny-tau_c boundary, where
    the two measured rates differ too little to resolve the bath time.
    """

    t2: float
    tau_c: float
    residual: float
    degenerate: bool


# Search window for tau_c / t_fast, log-spaced; the suppression factor
# spans (0, 1) monotonically across it.
_TAU_LO = 1e-18
_TAU_HI = 1e3
_DEGENERATE_RATIO = 1e-9


def extract_tau_c(
    eta_slow: float, eta_fast: float, t_fast: float
) -> ExtractionResult:
    """Infer (T2, tau_c) from decay rates at slow and fast kicking.

    The slow-kicking rate saturates at 1/T2; the fast-kicking rate is
    suppressed by g(tau_c) = 1 - (2 tau_c / t_fast) tanh(t_fast/(2 tau_c)),
    strictly decreasing in tau_c, so the ratio eta_fast/eta_slow pins
    tau_c uniquely by bracketed root finding.
    """
    if not t_fast > 0.0:
        raise ValueError(f"t_fast must be positive, got {t_fast}")
    if not (eta_slow > 0.0 and eta_fast > 0.0):
        raise InconsistentDataError("measured rates must be positive")
    if eta_fast >= eta_slow:
        raise InconsistentDataError(
            f"fast-kicking rate {eta_fast} is not below the slow-kicking "
            f"rate {eta_slow}; no suppression to invert"
        )
    t2 = 1.0 / eta_slow
    target = eta_fast / eta_slow

    def misfit(log_tau: float) -> float:
        tau = math.exp(log_tau) * t_fast
        return _suppression_factor(t_fast / (2.0 * tau)) - target

    lo, hi = math.log(_TAU_LO), math.log(_TAU_HI)
    if misfit(hi) > 0.0:
        raise OutOfRangeError(
            f"rate ratio {target} below the searchable suppression range; "
            f"tau_c would exceed {_TAU_HI} * t_fast"
        )
    if misfit(lo) < 0.0:
        raise OutOfRangeError(
            f"rate ratio {target} above the searchable suppression range"
        )
    log_tau = scipy.optimize.brentq(misfit, lo, hi, xtol=1e-15, rtol=1e-15)
    tau_c = math.exp(log_tau) * t_fast
    residual = abs(misfit(log_tau))
    return ExtractionResult(
        t2=t2,
        tau_c=tau_c,
        residual=residual,
        degenerate=tau_c < _DEGENERATE_RATIO * t_fast,
    )


def read_rate_measurements(path) -> list[tuple[float, float]]:
    """Read (period, rate) rows from a text file; '#' starts a comment."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.size == 0 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (period, rate)")
    return [(float(row[0]), float(row[1])) for row in data]
