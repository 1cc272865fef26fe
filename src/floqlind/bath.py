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

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np


# Smallest normal double.  Below it 1 - e^{-x} = x(1 - x/2 + ...) is x to
# within rounding, while expm1 on a subnormal x keeps only a few bits.
_TINY = sys.float_info.min
# u**3 is a normal double for u strictly between these.
_CUBE_MIN, _CUBE_MAX = 3e-103, 5e102
# ln 2 = _LN2_HI + _LN2_LO; the high part ends in 21 zero bits, so
# n * _LN2_HI is exact for |n| < 2^21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# ln 2^-1080: an exact value below 2^-1080 rounds to +0.0 with 2^5 to spare.
_LN_ZERO = -1080.0 * math.log(2.0)


def _exp_split(x: float) -> tuple[float, int]:
    """(e^{-r}, n) with e^{-x} = e^{-r} 2^{-n}, r = x - n ln 2.  n stops at
    4e3 / ln 2 (also for a NaN x): 2^{-n} is then below 2^-5770 and no
    product scaled here exceeds 2^4150, so the result underflows anyway."""
    n = round(min(4e3, x) / math.log(2.0))
    return math.exp(n * _LN2_LO - (x - n * _LN2_HI)), n


def _ldexp(mantissa: float, exponent: int) -> float:
    """mantissa 2^exponent, or inf where that is above the largest double."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _math_map(function, x, *args) -> np.ndarray:
    """function(value, *args) at each value of x, shaped like x.

    For functions of a Python float whose bits are libm's, such as the
    math module's, the float power and PhononCutoff.evaluate: numpy's
    exp, expm1, tanh and power round otherwise on some arguments, and
    differently at each of its SIMD levels.  The map runs in C, so a
    builtin function makes no Python call per value.
    """
    x = np.asarray(x, dtype=float)
    values = map(function, x.ravel().tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, float, count=x.size).reshape(x.shape)


class SpectralDensity:
    """Shared behavior of all spectral-density variants."""

    def evaluate(self, omega):
        """gamma(omega): a float for a scalar, elementwise for an ndarray.

        A float (np.float64 included), an int or a 0-d array is a scalar.
        PhononCutoff takes a float to its scalar case without a numpy
        call, and a list elementwise like an ndarray.
        """
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
        # x * x, not x ** 2: a float's ** is libm pow, which can round
        # otherwise than numpy's array square and raises OverflowError.
        # Where x or x * x overflows the density is 0.0, as the inf gives
        # without numpy's warning; a Python float's product never warns.
        with np.errstate(over="ignore"):
            x = self.tau_c * omega
            return (2.0 / self.t2) / (1.0 + x * x)

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
    relative error there is below 1e-308.  There, and where omega^3,
    A omega^3 e^{-omega/cutoff} or an exponential factor is not a normal
    double, the density is rescaled by powers of two (_rescaled);
    elsewhere the formula is evaluated as written.  An array takes the formula
    elementwise and defers every other point to that scalar selection.

    An array first sets to 0.0, in one pass, the points where the density
    is exactly 0.0 whatever path computes it.  Since 1/(1 - e^{-x}) <=
    1 + 1/x and the negative branch never exceeds the positive one,
    gamma(+-u) <= A u^3 e^{-u/cutoff} (1 + 1/(beta u)); where the log of
    that bound is below -1080 ln 2, gamma is below 2^-1080, 2^5 under the
    smallest subnormal.  Both the formula and the scalar selection round
    such a value, through any subnormal intermediate, to +0.0, and the
    2^5 margin absorbs the rounding of numpy's log, whose bits depend on
    its SIMD level: a point near the threshold may fall on either side,
    and both give 0.0.  So the screen moves no bit.
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
        # An array takes the plain formula, elsewhere the scalar case.  A
        # float (np.float64 too) is a scalar without asking numpy: np.ndim
        # wraps it in an array, which costs more than the formula.
        if not isinstance(omega, float) and np.ndim(omega) > 0:
            w = np.asarray(omega, dtype=float)
            u = np.abs(w)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                beta_u, z = self.beta * u, np.exp(-u / self.cutoff)
                # The log of the bound; NaN (u = 0 or inf) is never screened.
                log_bound = math.log(self.coupling) + 3.0 * np.log(u)
                log_bound += np.log1p(1.0 / beta_u) - u / self.cutoff
                zero = log_bound < _LN_ZERO
                absorbed = np.where(w < 0.0, np.exp(-beta_u), 1.0)
                gamma = absorbed * (self.coupling * u**3 * z / -np.expm1(-beta_u))
                # An overflowing u**3 shows as an inf or NaN gamma.
                plain = (u > _CUBE_MIN) & (beta_u >= _TINY) & (gamma < math.inf)
                plain &= (z >= _TINY) & (absorbed >= _TINY)
            gamma[zero] = 0.0
            for i in np.flatnonzero(~(plain | zero)):
                gamma.flat[i] = self.evaluate(float(w.flat[i]))
            return gamma
        omega = float(omega)  # an np.float64 would warn where A u^3 overflows
        if omega == 0.0 or omega < 0.0 and math.isinf(self.beta):
            return 0.0
        u = abs(omega)
        beta_u = self.beta * u
        if beta_u >= _TINY and _CUBE_MIN < u < _CUBE_MAX:
            z = math.exp(-u / self.cutoff)
            gamma = self.coupling * u**3 * z / -math.expm1(-beta_u)
            # below zero, detailed balance; the division is by 1 at beta = inf
            absorbed = math.exp(-beta_u) if omega < 0.0 else 1.0
            if z >= _TINY and absorbed >= _TINY and gamma < math.inf:
                return absorbed * gamma
        # The classical limit, u**3 or an exponential is not normal, or the
        # product is inf or NaN.
        return self._rescaled(u, omega < 0.0)

    def _rescaled(self, u: float, absorbed: bool) -> float:
        """gamma(u), times e^{-beta u} if absorbed, from powers of two.

        A u^3 / (1 - e^{-beta u}), or A u^2 / beta in the classical limit,
        is formed from frexp mantissas, each exponential e^{-x} from
        _exp_split, and _ldexp restores the powers of two, as in
        rate_perp_closed.
        """
        (coupling, a), (u_m, w) = math.frexp(self.coupling), math.frexp(u)
        if self.beta * u < _TINY:
            beta_m, b = math.frexp(self.beta)
            mantissa, exponent = coupling * u_m * u_m / beta_m, a + 2 * w - b
        else:
            shrink, s = math.frexp(-math.expm1(-self.beta * u))
            mantissa, exponent = coupling * u_m**3 / shrink, a + 3 * w - s
        for x in (u / self.cutoff, self.beta * u if absorbed else 0.0):
            z, n = _exp_split(x)
            mantissa, exponent = mantissa * z, exponent - n
        return _ldexp(mantissa, exponent)

    def tail_supremum(self, threshold: float) -> float:
        # With b = beta cutoff the slope of log gamma in x = u / cutoff,
        # 3/x - 1 - b / (e^{b x} - 1), falls in x, is positive at x = 2 and
        # <= 0 at x = 3: gamma rises to one peak in [2, 3] cutoff and falls
        # beyond.  On [a, 3 cutoff] u^3 rises while e^{-u/cutoff} and the
        # thermal occupation fall, so gamma(a) (3 cutoff / a)^3 bounds gamma
        # there, a = max(threshold, 2 cutoff) covering the rise below.  The
        # negative branch gamma(-u) = e^{-beta u} gamma(u) never exceeds it.
        edge = 3.0 * self.cutoff
        if threshold >= edge:
            return self.evaluate(threshold)
        a = max(threshold, 2.0 * self.cutoff)
        return self.evaluate(a) * (edge / a) ** 3
