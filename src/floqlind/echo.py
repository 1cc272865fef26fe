"""Ensemble averaging over random detuning and bath-time extraction.

In an inhomogeneous field every spin carries its own detuning delta,
entering the transverse motion only through the accumulated phase
phi(t) = omega_ext t + delta T ({t/T} - 1/2).  The decay factors are
detuning independent, so ensemble averaging touches the phase alone and
reduces to the detuning distribution's characteristic function evaluated
at u = T ({t/T} - 1/2).  At half-integer multiples of the period u = 0:
every spin rephases and the single-spin transverse magnitude returns --
the echo.  ``echo_signal`` has no per-time loop: one ``floor_frac`` call
splits all its times, each characteristic function takes the whole array
of offsets u, and the carrier e^{i omega_ext t} is one complex exp.  The
printed cells must not move, so the arithmetic keeps the bits of the
per-time formulas: real decay factors and the Gaussian characteristic
function come from the math module and the float power, mapped over the
array (numpy's exp and power differ from them in the last bit, and by
host), and complex products are formed in real arithmetic (numpy's
vectorised complex multiply rounds differently from its scalar one).

``extract_tau_c`` inverts the kicked dephasing rate: measuring the decay
rate at one slow and one fast kicking period determines both the bare
dephasing time and the bath correlation time.  Its one root comes from
``_brentq``, Brent's method in Python, which loads no compiled solver.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import _math_map
from .dynamics import TLSParams, _echo_offset, _kicked_motion
from .errors import (
    ConfigError, InconsistentDataError, InputError, NumericFailure, OutOfRangeError,
)
from .floquet import floor_frac
from .lindblad import _suppression_factor

# x^2 is a finite double for |x| below this and above the double range
# from it on.
_SQUARE_OVERFLOW = 2.0**512


@dataclass(frozen=True)
class GaussianDetuning:
    """delta ~ Normal(0, sigma^2)."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise InputError(f"sigma must be nonnegative and finite, got {self.sigma}")

    def characteristic_function(self, u):
        """e^{-(sigma u)^2 / 2}, with the square a float power and the
        exponential math.exp, as for one float u.  Where the square is
        above the double range (|sigma u| >= 2^512, where the float power
        raises OverflowError) the value is 0.0, as at an inf sigma u."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):  # an inf sigma u, as for a float
            x = self.sigma * u
        x = np.where(np.abs(x) >= _SQUARE_OVERFLOW, math.inf, x)
        square = _math_map(pow, x, 2.0)
        return _complex_like(u, _math_map(math.exp, -0.5 * square))


@dataclass(frozen=True)
class UniformDetuning:
    """delta uniform on [-halfwidth, halfwidth]."""

    halfwidth: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.halfwidth < math.inf:
            raise InputError(
                f"halfwidth must be nonnegative and finite, got {self.halfwidth}"
            )

    def characteristic_function(self, u):
        """sin(halfwidth u) / (halfwidth u)."""
        u = np.asarray(u, dtype=float)
        return _complex_like(u, np.sinc(self.halfwidth * u / math.pi))


@dataclass(frozen=True)
class DiscreteDetuning:
    """Weighted atoms; weights must be nonnegative and sum to one."""

    deltas: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        deltas = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if deltas.shape != weights.shape or deltas.ndim != 1:
            raise InputError("deltas and weights must be equal-length 1-D")
        if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(weights))):
            raise InputError("deltas and weights must be finite")
        if np.any(weights < 0.0):
            raise InputError("weights must be nonnegative")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise InputError(f"weights sum to {np.sum(weights)}, expected 1")
        deltas.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "weights", weights)

    def characteristic_function(self, u):
        """sum_k w_k e^{i delta_k u}.  The (times, atoms) terms are formed one
        block of times at a time, so memory stays bounded for many atoms;
        each row sums along the atoms like the one-time sum."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1, 1)
        phases = 1j * self.deltas
        values = np.empty(len(flat), dtype=complex)
        block = max(1, _BLOCK_TERMS // len(phases))
        for start in range(0, len(flat), block):
            terms = self.weights * np.exp(phases * flat[start : start + block])
            values[start : start + block] = np.sum(terms, axis=-1)
        return _complex_like(u, values)


DetuningEnsemble = GaussianDetuning | UniformDetuning | DiscreteDetuning

# Complex terms a discrete ensemble forms at once: 512 KiB.
_BLOCK_TERMS = 1 << 15


def _complex_like(u: np.ndarray, values):
    """Characteristic-function values shaped like u: a complex scalar for a
    scalar u, a complex array otherwise."""
    return np.asarray(values, dtype=complex).reshape(u.shape)[()]


def averaged_phase(
    e: DetuningEnsemble, p: TLSParams, t: float
) -> tuple[float, float]:
    """(<cos phi(t)>, <sin phi(t)>) over the detuning ensemble.

    <e^{i phi}> = e^{i omega_ext t} C(T({t/T} - 1/2)) with C the
    ensemble's characteristic function, so the average is exact, not
    sampled.  At t = (n + 1/2) T the argument vanishes, C = 1, and the
    phase coherence is fully restored.  Defined for t >= 0 only.
    """
    _, avg_cos, avg_sin = _ensemble_phase(e, p, np.array([t], dtype=float))
    return float(avg_cos[0]), float(avg_sin[0])


def _ensemble_phase(e: DetuningEnsemble, p: TLSParams, times: np.ndarray):
    """(n, <cos phi>, <sin phi>) at each time.  The product
    e^{i omega_ext t} C(u) is formed in real arithmetic, (ac - bd, ad + bc),
    which rounds like numpy's scalar complex product."""
    n, frac = floor_frac(times, p.period)
    c = e.characteristic_function(_echo_offset(p.period, frac))
    carrier = np.exp(1j * p.omega_ext * times)
    a, b = carrier.real, carrier.imag
    return n, a * c.real - b * c.imag, a * c.imag + b * c.real


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

    x0 holds finite (x1, x2) or (x1, x2, x3); x3 is not echoed and is
    ignored.  times is one time or a 1-D array of them, none below 0
    (DomainError: the decay factors would grow); more dimensions raise
    InputError, and a phase that overflows NumericFailure naming its t.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((2,), (3,)) or not np.all(np.isfinite(x0)):
        raise InputError(f"x0 must be 2 or 3 finite Bloch components, got {x0}")
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise InputError(f"times must be a scalar or 1-D, got shape {times.shape}")
    with np.errstate(all="ignore"):  # an overflowing phase is NaN, raised below
        n, avg_cos, avg_sin = _ensemble_phase(e, p, times)
    bad = np.ravel(times)[~np.isfinite(np.ravel(avg_cos + avg_sin))]
    if bad.size:
        raise NumericFailure(f"the echo phase at t = {float(bad[0])!r} overflowed")
    x1, x2, _ = _kicked_motion(
        p.eta, times, n, avg_cos, avg_sin, (*x0[:2].tolist(), 0.0)
    )
    return EchoSignal(
        times=times, avg_cos=avg_cos, avg_sin=avg_sin,
        transverse=np.column_stack([x1, x2]),
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
# falls monotonically across it.  At _TAU_LO it is exactly 1.0, above
# every ratio eta_fast / eta_slow of two doubles with eta_fast < eta_slow
# (that quotient rounds to at most 1 - 2^-53), so only _TAU_HI can fail
# to bracket the root.
_TAU_LO = 1e-18
_TAU_HI = 1e3
_DEGENERATE_RATIO = 1e-9
_BRENTQ_MAXITER = 100  # iterations before _brentq gives up


def extract_tau_c(
    eta_slow: float, eta_fast: float, t_fast: float
) -> ExtractionResult:
    """Infer (T2, tau_c) from decay rates at slow and fast kicking.

    The slow-kicking rate is taken as saturated at 1/T2; the fast-kicking
    rate is suppressed by
    g(tau_c) = 1 - (2 tau_c / t_fast) tanh(t_fast/(2 tau_c)),
    strictly decreasing in tau_c, so the ratio eta_fast/eta_slow pins
    tau_c uniquely; ``_brentq`` finds it on log(tau_c / t_fast) to
    xtol = rtol = 1e-15 in far fewer than its 100 iterations.

    t2 = 1/eta_slow is the limit of a slow period T_slow -> inf.  At a
    finite T_slow the slow rate is still suppressed, and T2 comes out
    high: by 39%, 2.9% and 0.3% at T_slow/tau_c = 7, 71 and 714 (exact
    rates at T2 = 2, tau_c = 0.7, t_fast = 0.1), with tau_c low by 15%,
    1.4% and 0.14%.  Fitting with both periods would move the cli-tables
    benchmark's extract tables, whose gate requires t2 == 1/eta_slow, so
    it waits for a change to that benchmark.

    t_fast must be positive and finite (InputError).  Rates with no fit
    raise InconsistentDataError, a tau_c that is not a normal double (as at
    t_fast = 1e-310) OutOfRangeError, a stalled search NumericFailure.
    """
    if not 0.0 < t_fast < math.inf:
        raise InputError(f"t_fast must be positive and finite, got {t_fast}")
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
        if 0.0 < 2.0 * tau < math.inf:
            return _suppression_factor(t_fast / (2.0 * tau)) - target
        # 2 tau left the double range; t_fast / (2 tau) is still 0.5 e^-log_tau.
        return _suppression_factor(0.5 / math.exp(log_tau)) - target

    lo, hi = math.log(_TAU_LO), math.log(_TAU_HI)
    if misfit(hi) > 0.0:
        raise OutOfRangeError(
            f"rate ratio {target} below the searchable suppression range; "
            f"tau_c would exceed {_TAU_HI} * t_fast"
        )
    log_tau = _brentq(misfit, lo, hi, xtol=1e-15, rtol=1e-15)
    tau_c = math.exp(log_tau) * t_fast
    if not sys.float_info.min <= tau_c <= sys.float_info.max:
        raise OutOfRangeError(
            f"tau_c = {tau_c!r} at t_fast = {t_fast!r} is not a normal double"
        )
    residual = abs(misfit(log_tau))
    return ExtractionResult(
        t2=t2,
        tau_c=tau_c,
        residual=residual,
        degenerate=tau_c < _DEGENERATE_RATIO * t_fast,
    )


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign: Brent's
    method line for line as in SciPy's optimize/Zeros/brentq.c (C. Harris,
    BSD-3-Clause), so each iterate is SciPy's float; a step that C divides
    by 0 to get bisects here too.  f must not return NaN.  Raises
    NumericFailure after _BRENTQ_MAXITER iterations."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({xa!r}) and f({xb!r}) must differ in sign")  # as in SciPy
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                divisor = dblk * dpre * (fblk - fpre)
                if divisor != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / divisor
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericFailure(
        f"no root found in [{xa!r}, {xb!r}] after {_BRENTQ_MAXITER} iterations"
    )


def read_rate_measurements(path) -> list[tuple[float, float]]:
    """Read (period, rate) rows from a text file; '#' starts a comment.

    A file with no data rows gives an empty list.
    """
    with warnings.catch_warnings():
        # numpy warns that such a file holds no data; the caller counts rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, comments="#", ndmin=2)
        except ValueError as exc:  # a cell that is not a number, a NUL in the path
            raise ConfigError(str(exc)) from None
    if len(data) and data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns (period, rate)")
    return [(float(row[0]), float(row[1])) for row in data]
