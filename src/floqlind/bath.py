"""Bath spectral densities gamma(omega).

The bath enters the dynamics only through a nonnegative spectral density:
the generator weighs each harmonic component S(omega, q) by
gamma(omega + q Omega).  Two families are provided:

* ``Lorentzian`` -- exponentially decaying bath correlations at high
  temperature; even in omega, so no KMS asymmetry.
* ``PhononCutoff`` -- cubic (acoustic-phonon) density with exponential
  cutoff and thermal occupation; obeys the KMS condition
  gamma(-omega) = e^{-beta omega} gamma(omega).  beta = +inf is the
  zero-temperature member.

Every parameter except beta must be finite and positive.

``tail_supremum(w)`` bounds gamma over |omega| >= w.  Adaptive generator
truncation relies on it.  Both families return a finite bound at every
threshold: each rises to a single peak and then decays, and
PhononCutoff's negative branch gamma(-u) = e^{-beta u} gamma(u) stays
below its positive one at every temperature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


# Smallest normal double.  Below it 1 - e^{-x} = x(1 - x/2 + ...) is x to
# within rounding, while expm1 on a subnormal x keeps only a few bits.
_TINY = sys.float_info.min


class SpectralDensity:
    """Shared behavior of all spectral-density variants."""

    def evaluate(self, omega):
        """gamma(omega): a float for a scalar, elementwise for an ndarray."""
        raise NotImplementedError

    def tail_supremum(self, threshold: float) -> float:
        """Upper bound for gamma over |omega| >= threshold (+inf if none)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lorentzian(SpectralDensity):
    """gamma(omega) = (2/t2) / (1 + (tau_c * omega)^2).

    ``t2`` is the unkicked dephasing-time scale (gamma(0) = 2/t2) and
    ``tau_c`` the bath correlation time.
    """

    t2: float
    tau_c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t2 < math.inf and 0.0 < self.tau_c < math.inf):
            raise ValueError("t2 and tau_c must be finite and positive")

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
    omega <= 0.  Where beta |omega| is below the smallest normal double
    (subnormal or 0, where 1 - e^{-beta omega} keeps too few bits) it is
    the classical limit A omega^2 e^{-|omega|/cutoff} / beta, whose
    relative error there is below 1e-308.
    """

    coupling: float
    cutoff: float
    beta: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 < self.coupling < math.inf and 0.0 < self.cutoff < math.inf):
            raise ValueError("coupling and cutoff must be finite and positive")
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
                classical = self.beta * u < _TINY
                gamma[classical] = self._classical(u[classical])
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
        if self.beta * omega < _TINY:
            return float(self._classical(omega))
        # omega > 0, or NaN, which the formula propagates.
        return (
            self.coupling
            * omega**3
            * math.exp(-omega / self.cutoff)
            / -math.expm1(-self.beta * omega)
        )

    def _classical(self, u):
        """A u^2 e^{-u/cutoff} / beta, ordered so that u^2 is never formed."""
        return u / self.beta * u * self.coupling * np.exp(-u / self.cutoff)

    def _peak(self) -> float:
        """Location u > 0 of the maximum of gamma(u).

        Solved for x = u / cutoff, so the root tolerance is relative to the
        cutoff and the bracket [1e-9, 3] stays clear of subnormals at any
        cutoff.  With b = beta cutoff the logarithmic slope in x,
        3/x - 1 - b / (e^{b x} - 1), falls monotonically from +inf at
        x -> 0 to -b / (e^{3 b} - 1) <= 0 at x = 3, the peak at zero
        temperature.  When rounding leaves the slope there nonnegative, the
        peak is 3 cutoff to within rounding.
        """
        b = self.beta * self.cutoff

        def slope(x: float) -> float:  # d/dx of the logarithm
            y = b * x
            if y > 700.0:
                return 3.0 / x - 1.0
            # b / (e^y - 1) = 1 / (x (e^y - 1)/y), finite as b -> 0 too
            return 3.0 / x - 1.0 - 1.0 / (x * (math.expm1(y) / y if y else 1.0))

        if math.isinf(self.beta) or slope(3.0) >= 0.0:
            return 3.0 * self.cutoff
        # Imported here, not with the module: loading scipy.optimize takes
        # about 0.3 s, and only this search and echo.extract_tau_c need it.
        import scipy.optimize

        return self.cutoff * scipy.optimize.brentq(slope, 1e-9, 3.0)

    def tail_supremum(self, threshold: float) -> float:
        # gamma rises to its peak and then decays, and the negative branch
        # gamma(-u) = e^{-beta u} gamma(u) never exceeds it.
        return self.evaluate(max(threshold, self._peak()))
