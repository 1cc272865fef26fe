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
# ln 2 = _LN2_HI + _LN2_LO; the high part ends in 21 zero bits, so
# n * _LN2_HI is exact for |n| < 2^21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


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
    relative error there is below 1e-308.  Where A omega^3
    e^{-omega/cutoff} is inf or NaN, or an exponential factor is not a
    normal double, the density is rescaled by powers of two (_rescaled);
    elsewhere the formula is evaluated as written.
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
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                z = np.exp(-u / self.cutoff)
                gamma = self.coupling * u**3 * z / -np.expm1(-self.beta * u)
                absorbed = np.exp(-self.beta * u)
                gamma = np.where(w < 0.0, absorbed * gamma, gamma)
                plain = (z >= _TINY) & (gamma < math.inf)
                plain &= (w > 0.0) | (absorbed >= _TINY)
                classical = self.beta * u < _TINY
            gamma[classical] = self._classical(u[classical])
            zero = w <= 0.0 if math.isinf(self.beta) else w == 0.0
            gamma[zero] = 0.0
            for i in np.flatnonzero(~(plain | classical | zero)):
                gamma.flat[i] = self._rescaled(float(u.flat[i]), w.flat[i] < 0.0)
            return gamma
        if omega == 0.0 or omega < 0.0 and math.isinf(self.beta):
            return 0.0
        u = abs(omega)
        beta_u = self.beta * u
        if beta_u < _TINY:
            return float(self._classical(u))
        if u < 5e102:  # else u**3 overflows
            z = math.exp(-u / self.cutoff)
            gamma = self.coupling * u**3 * z / -math.expm1(-beta_u)
            # below zero, detailed balance; the division is by 1 at beta = inf
            absorbed = math.exp(-beta_u) if omega < 0.0 else 1.0
            if z >= _TINY and absorbed >= _TINY and gamma < math.inf:
                return absorbed * gamma
        # An exponential has underflowed, or the product is inf or NaN.
        return self._rescaled(u, omega < 0.0)

    def _rescaled(self, u: float, absorbed: bool) -> float:
        """gamma(u), times e^{-beta u} if absorbed, where the plain product
        A u^3 e^{-u/cutoff} is inf or NaN or one of its exponentials is not
        a normal double.

        A u^3 / (1 - e^{-beta u}) is formed from frexp mantissas, each
        exponential e^{-x} as e^{-r} 2^{-n} with r = x - n ln 2, and one
        ldexp restores the powers of two, as in rate_perp_closed.  Past
        x = 5e3 the result underflows whatever A, u and beta are.
        """
        (coupling, a), (u_m, w) = math.frexp(self.coupling), math.frexp(u)
        shrink, s = math.frexp(-math.expm1(-self.beta * u))
        mantissa, exponent = coupling * u_m**3 / shrink, a + 3 * w - s
        for x in (u / self.cutoff, self.beta * u if absorbed else 0.0):
            n = round(min(5e3, x) / math.log(2.0))  # a NaN x keeps 5e3
            mantissa *= math.exp(n * _LN2_LO - (x - n * _LN2_HI))
            exponent -= n
        try:
            return math.ldexp(mantissa, exponent)
        except OverflowError:  # the density is above the largest double
            return math.inf

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
