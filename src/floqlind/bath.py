"""Bath spectral densities gamma(omega).

The bath enters the dynamics only through a nonnegative spectral density:
the generator weighs each harmonic component S(omega, q) by
gamma(omega + q Omega).  Three families are provided:

* ``Lorentzian`` -- exponentially decaying bath correlations at high
  temperature; even in omega, so no KMS asymmetry.
* ``PhononCutoff`` -- cubic (acoustic-phonon) density with exponential
  cutoff and thermal occupation; obeys the KMS condition
  gamma(-omega) = e^{-beta omega} gamma(omega).  beta = +inf is the
  zero-temperature member.
* ``Tabulated`` -- linear interpolation on a measured grid.  It refuses
  to extrapolate: generator sums probe arbitrarily high harmonics and a
  silently extended grid would corrupt truncation-error accounting.

``tail_supremum(w)`` bounds gamma over |omega| >= w.  Adaptive generator
truncation relies on it.  Only ``Tabulated`` returns +inf, since a table
cannot vouch for frequencies outside its grid; PhononCutoff's emission
branch gamma(-u) = e^{-beta u} gamma(u) decays at every temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import ExtrapolationError, UndefinedRatioError


class SpectralDensity:
    """Shared behavior of all spectral-density variants."""

    def evaluate(self, omega):
        """gamma(omega): a float for a scalar, elementwise for an ndarray."""
        raise NotImplementedError

    def tail_supremum(self, threshold: float) -> float:
        """Upper bound for gamma over |omega| >= threshold (+inf if none)."""
        raise NotImplementedError

    def supremum(self) -> float:
        """Upper bound for gamma over all frequencies (+inf if unbounded)."""
        return self.tail_supremum(0.0)

    def kms_ratio(self, omega: float) -> float:
        """Detailed-balance ratio gamma(-omega) / gamma(omega)."""
        if omega == 0.0:
            return 1.0
        denominator = self.evaluate(omega)
        if denominator == 0.0:
            raise UndefinedRatioError(
                f"gamma({omega}) = 0, KMS ratio undefined at this frequency"
            )
        return self.evaluate(-omega) / denominator


@dataclass(frozen=True)
class Lorentzian(SpectralDensity):
    """gamma(omega) = (2/t2) / (1 + (tau_c * omega)^2).

    ``t2`` is the unkicked dephasing-time scale (gamma(0) = 2/t2) and
    ``tau_c`` the bath correlation time.
    """

    t2: float
    tau_c: float

    def __post_init__(self) -> None:
        if not (self.t2 > 0.0 and self.tau_c > 0.0):
            raise ValueError("t2 and tau_c must be positive")

    def evaluate(self, omega):
        return (2.0 / self.t2) / (1.0 + (self.tau_c * omega) ** 2)

    def tail_supremum(self, threshold: float) -> float:
        # Even and decreasing in |omega|: the tail peaks at its edge.
        return self.evaluate(max(threshold, 0.0))


@dataclass(frozen=True)
class PhononCutoff(SpectralDensity):
    """gamma(omega) = A omega^3 e^{-omega/cutoff} / (1 - e^{-beta omega}) for
    omega > 0, extended to omega < 0 by detailed balance,
    gamma(-omega) = e^{-beta omega} gamma(omega).

    gamma(0) = 0 exactly (the singularity is removable).  At beta = +inf
    the density is A omega^3 e^{-omega/cutoff} for omega > 0 and zero for
    omega <= 0.
    """

    coupling: float
    cutoff: float
    beta: float = math.inf

    def __post_init__(self) -> None:
        if not (self.coupling > 0.0 and self.cutoff > 0.0):
            raise ValueError("coupling and cutoff must be positive")
        if not self.beta > 0.0:
            raise ValueError(
                "beta must be positive (use math.inf for zero temperature); "
                "the beta = 0 density is infinite at every frequency"
            )

    def evaluate(self, omega):
        if np.ndim(omega) > 0:  # the scalar branches below, elementwise
            w = np.asarray(omega, dtype=float)
            u = np.abs(w)
            with np.errstate(invalid="ignore", divide="ignore"):
                gamma = self.coupling * u**3 * np.exp(-u / self.cutoff)
                gamma = gamma / -np.expm1(-self.beta * u)  # 1 at beta = inf
                gamma = np.where(w < 0.0, np.exp(-self.beta * u) * gamma, gamma)
            return np.where(w == 0.0, 0.0, gamma)
        if omega == 0.0:
            return 0.0
        if math.isinf(self.beta):
            if omega <= 0.0:
                return 0.0
            return self.coupling * omega**3 * math.exp(-omega / self.cutoff)
        if omega < 0.0:  # absorption branch fixed by detailed balance
            u = -omega
            return math.exp(-self.beta * u) * self.evaluate(u)
        # omega > 0, or NaN, which the formula propagates.
        return (
            self.coupling
            * omega**3
            * math.exp(-omega / self.cutoff)
            / -math.expm1(-self.beta * omega)
        )

    def _peak(self, rate: float) -> float:
        """Location u > 0 of the maximum of u^3 e^{-rate u} / (1 - e^{-beta u}).

        rate = 1/cutoff is the absorption branch gamma(u); rate = 1/cutoff
        + beta the emission branch gamma(-u) = e^{-beta u} gamma(u).
        """

        def slope(u: float) -> float:  # d/du of the logarithm
            x = self.beta * u
            thermal = 0.0 if x > 700.0 else self.beta / math.expm1(x)
            return 3.0 / u - rate - thermal

        return scipy.optimize.brentq(slope, 1e-9 * self.cutoff, 3.0 * self.cutoff)

    def tail_supremum(self, threshold: float) -> float:
        # Each branch rises to its peak and then decays.
        w = max(threshold, 0.0)
        if math.isinf(self.beta):  # no emission branch
            return self.evaluate(max(w, 3.0 * self.cutoff))
        pos = self.evaluate(max(w, self._peak(1.0 / self.cutoff)))
        neg = self.evaluate(-max(w, self._peak(1.0 / self.cutoff + self.beta)))
        return max(pos, neg)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Linear interpolation of (grid, values) samples; no extrapolation."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise ValueError("grid and values must be equal-length 1-D, length >= 2")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise ValueError("grid and values must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0.0):
            raise ValueError("spectral density values must be nonnegative")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_file(cls, path) -> "Tabulated":
        """Load a two-column text file (omega, gamma); '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(
                f"{path}: expected two columns (omega, gamma), got {data.shape[1]}"
            )
        return cls(grid=data[:, 0], values=data[:, 1])

    def evaluate(self, omega):
        w = np.asarray(omega, dtype=float)
        outside = (w < self.grid[0]) | (w > self.grid[-1])
        if np.any(outside):
            raise ExtrapolationError(
                f"frequency {w[outside].flat[0]} outside tabulated range "
                f"[{self.grid[0]}, {self.grid[-1]}]"
            )
        values = np.interp(w, self.grid, self.values)
        return values if w.ndim else float(values)

    def tail_supremum(self, threshold: float) -> float:
        # The density is unknown outside the grid, and every tail reaches
        # there; no finite certificate exists.
        return math.inf

