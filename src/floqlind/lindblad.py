"""Assembly of the interaction-picture Lindblad generator.

The generator is a sum of GKSL dissipators, one per harmonic component of
each coupling operator, weighted by the bath spectral density at the
component's effective frequency:

    L rho = sum_{alpha, omega, q} gamma_alpha(omega + q Omega)
            [ S rho S† - (S†S rho + rho S†S)/2 ],   S = S_alpha(omega, q).

Couplings with different alpha are treated as statistically independent
(no cross terms).  The harmonic series is truncated adaptively: by
Parseval, sum_{omega,q} ||S(omega,q)||_F^2 = ||S||_F^2 exactly, so the
weight beyond |q| <= q_max is known in closed form, and multiplying it by
a bound on gamma over the frequencies remaining in the tail gives a
rigorous cap on the discarded rates.

All components enter one running contraction (see ``_dissipator``), so
each doubling of q_max computes and adds only the new harmonics.

The secular generator keeps the Bohr frequency eps_k - eps_l of each
Floquet-basis matrix element |k><l| (Breuer and Petruccione, The Theory
of Open Quantum Systems, sec. 3.3), so in the Floquet basis it is block
diagonal by frequency cluster.  ``BohrBlocks`` keeps those blocks in
stacks of one size, each exponentiated in one call, with the structure
the exact map imposes on it (see ``BohrBlocks``).  ``semigroup`` and
``dynamics.evolve`` both apply them through ``BohrBlocks.propagate``,
which raises NumericFailure where e^{tL} is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy  # scipy.linalg loads at its first read, not at import

from .bath import (
    _CUBE_MAX,
    _CUBE_MIN,
    _TINY,
    SpectralDensity,
    _exp_split,
    _ldexp,
    _math_map,
)
from .errors import DimensionError, DomainError, NumericFailure, TruncationError
from .floquet import FloquetDecomposition, HarmonicDecomposition
from .operators import vec

# Adaptive truncation gives up past this many harmonics.
_Q_CAP = 1_048_576
# Parseval deficits below this relative level are treated as exactly zero
# (rounding noise of a decomposition whose tail genuinely vanishes, as in
# the kick-free case where folding makes the harmonic content finite).
_PARSEVAL_FLOOR = 1e-13
# verify_cptp passes a map whose trace and positivity violations are this small.
_CPTP_TOL = 1e-10


@dataclass(frozen=True)
class TruncationInfo:
    """Where ``build_generator``'s doubling stopped, and its path there.

    ``rounds`` holds (q_max, tail bound) of each round, from the starting
    q_max on; the last is (q_max_used, tail_bound).
    """

    q_max_used: int
    tail_bound: float
    rounds: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class BohrBlocks:
    """The semigroup e^{tL} in the Floquet basis, one Bohr block at a time.

    Indices are column-stacked Floquet-basis matrix elements (k, l), as in
    ``LindbladGenerator.floquet_superop``.

    * ``coherences`` holds (indices, mirror, blocks) per block size m:
      ``indices[b]`` are the m elements of one cluster of the b-th pair
      of mirror frequency clusters that size, ``blocks[b]`` the generator
      on them.  ``mirror`` holds the transposed elements (l, k), whose
      block is taken as the exact complex conjugate, so e^{tL} keeps
      Hermitian matrices Hermitian.
    * ``zeros`` are the elements of the zero-frequency cluster: all
      populations, and coherences between (near-)degenerate
      quasienergies.  In real coordinates of the Hermitian part (the
      trace, the other diagonal entries, and the real and imaginary part
      of each coherence pair) the generator is real and its trace row is
      exactly zero: the trace functional is its known left null vector.
      The block is exponentiated as pi tr(x) + R e^{t rates} Q x, the
      stationary state ``stationary`` plus the decaying modes, where
      ``to_rest`` (Q) takes x to the non-trace coordinates less their
      stationary value, and ``from_rest`` (R) maps those back with zero
      trace.
    * ``largest`` is the generator's largest entry in magnitude, which
      names the scale when e^{tL} is not finite.
    """

    coherences: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    zeros: np.ndarray
    trace: np.ndarray
    stationary: np.ndarray
    to_rest: np.ndarray
    from_rest: np.ndarray
    rates: np.ndarray
    largest: float

    def propagate(self, x0: np.ndarray, times) -> np.ndarray:
        """e^{tL} x0 at every time: x0 is (d², k), the result (len(times), d², k).
        Raises NumericFailure naming the first t where it is not finite."""
        times = np.asarray(times, dtype=float)[:, None, None]
        out = np.empty((len(times),) + x0.shape, dtype=complex)
        for indices, mirror, blocks in self.coherences:
            step = scipy.linalg.expm(times[..., None] * blocks)
            out[:, indices] = step @ x0[indices]
            out[:, mirror] = step.conj() @ x0[mirror]
        populations = x0[self.zeros]
        decay = scipy.linalg.expm(times * self.rates) @ (self.to_rest @ populations)
        stationary = np.outer(self.stationary, self.trace @ populations)
        out[:, self.zeros] = stationary + self.from_rest @ decay
        finite = np.isfinite(out.view(float)).ravel()  # one time after another
        if not finite.all():
            t = times.flat[np.argmin(finite) // (len(finite) // len(out))]
            raise NumericFailure(
                f"e^(tL) at t = {float(t)!r} has an inf or NaN entry; the "
                f"generator's largest entry is {self.largest!r} in magnitude"
            )
        return out


def _bohr_blocks(floquet_superop: np.ndarray, cluster: np.ndarray) -> BohrBlocks:
    """Split a Floquet-basis generator into its Bohr blocks.

    ``cluster[k, l]`` labels the frequency cluster of element (k, l); the
    generator must not couple different labels, (l, k) must carry the
    mirror label of (k, l), and cluster[0, 0] is the zero frequency.
    """
    dim = len(cluster)
    label = cluster.reshape(-1, order="F")
    index = np.arange(dim * dim).reshape(dim, dim, order="F")
    flip = index.T.reshape(-1, order="F")  # position of (l, k)
    zero = cluster[0, 0]
    # Each cluster's elements, in index order, are a run of ``order``.
    order = np.argsort(label, kind="stable")
    values, first, sizes = np.unique(label[order], return_index=True, return_counts=True)
    kept = (values != zero) & (values < label[flip[order[first]]])
    coherences = []
    for size in np.unique(sizes[kept]):
        indices = order[first[kept & (sizes == size), None] + np.arange(size)]
        blocks = floquet_superop[indices[:, :, None], indices[:, None, :]]
        coherences.append((indices, flip[indices], blocks))
    zeros = np.flatnonzero(label == zero)
    to_real, from_real = _real_coordinates(zeros, dim)
    real = (to_real @ floquet_superop[np.ix_(zeros, zeros)] @ from_real).real
    rates = real[1:, 1:]
    # The non-trace part s of a unit-trace stationary state solves
    # rates s = -real[1:, 0]; least squares also covers several of them.
    rest = np.linalg.lstsq(rates, -real[1:, 0], rcond=None)[0]
    return BohrBlocks(
        coherences=tuple(coherences),
        zeros=zeros,
        trace=to_real[0].real,
        stationary=from_real[:, 0] + from_real[:, 1:] @ rest,
        to_rest=to_real[1:] - np.outer(rest, to_real[0]),
        from_rest=from_real[:, 1:],
        rates=rates,
        largest=float(np.max(np.abs(floquet_superop))),
    )


def _real_coordinates(zeros: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(to_real, from_real) for the elements ``zeros``: z = (trace, the other
    diagonal entries, Re and Im of x[k, l] for each pair k < l)."""
    unit = dict(zip(zip(zeros % dim, zeros // dim), np.eye(len(zeros))))
    diagonal = [unit[k, k] for k in range(dim)]
    pairs = [(unit[k, l], unit[l, k]) for k, l in unit if k < l]
    to_real = [sum(diagonal), *diagonal[1:]]
    from_real = [diagonal[0], *(e - diagonal[0] for e in diagonal[1:])]
    for kl, lk in pairs:
        to_real += [(kl + lk) / 2, -0.5j * (kl - lk)]
        from_real += [kl + lk, 1j * (kl - lk)]
    return np.array(to_real, dtype=complex), np.array(from_real, dtype=complex).T


@dataclass(frozen=True)
class LindbladGenerator:
    """Assembled generator acting on column-vectorized density matrices.

    ``floquet_superop`` is the generator as assembled, in the Floquet basis
    (also ``g.basis``) of ``decomposition``, the decomposition it was built
    from, whose U(t) ``dynamics.evolve`` dresses the semigroup with.
    ``superop`` is it in the original (computational) basis, formed on
    first read.  ``blocks`` is the semigroup by Bohr block (see
    ``BohrBlocks``), split along the decomposition's frequency clusters.
    """

    floquet_superop: np.ndarray
    truncation: TruncationInfo
    decomposition: FloquetDecomposition = field(repr=False, compare=False)
    blocks: BohrBlocks = field(repr=False, compare=False)

    @property
    def basis(self) -> np.ndarray:
        return self.decomposition.basis

    @cached_property
    def superop(self) -> np.ndarray:
        """The generator in the original basis."""
        change = self.decomposition.change
        return change @ self.floquet_superop @ change.conj().T


@dataclass(frozen=True)
class RateResult:
    """A nonnegative decay rate, or an array of them.

    NaN can only come from arithmetic (an overflowed intermediate times
    zero), never from valid inputs, so it is a numeric failure.  An array
    is checked as its rates would be one at a time: the first that is NaN
    or negative raises.
    """

    eta: float | np.ndarray

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta)
        bad = np.flatnonzero(~(eta >= 0.0))  # NaN fails the comparison too
        if bad.size:
            value = eta.flat[bad[0]].item()
            if math.isnan(value):
                raise NumericFailure("decay rate is NaN: an intermediate overflowed")
            raise DomainError(f"decay rate must be nonnegative, got {value}")


def _dissipator(pairs: np.ndarray, dim: int) -> np.ndarray:
    """Sum of r [conj(S) ⊗ S - (I ⊗ S†S + (S†S)^T ⊗ I)/2] over components,
    from T[(i,j), (k,l)] = sum r conj(S[i,j]) S[k,l]: the jump part is T with
    its middle indices swapped, the Gram part sum r S†S its trace over i = k."""
    pairs = pairs.reshape(dim, dim, dim, dim)
    jump = pairs.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    gram = np.einsum("ijil->jl", pairs)
    eye = np.eye(dim)
    return jump - 0.5 * np.kron(eye, gram) - 0.5 * np.kron(gram.T, eye)


def build_generator(
    h: HarmonicDecomposition,
    densities: Sequence[SpectralDensity],
    rel_tol: float = 1e-8,
) -> LindbladGenerator:
    """Build the generator, extending q_max until the tail bound is met.

    Parameters
    ----------
    h : HarmonicDecomposition
        Starting decomposition; its q_max is the initial truncation.
    densities : sequence of SpectralDensity
        One bath per coupling, index-aligned with ``h.couplings``.
    rel_tol : float
        Target: discarded rate weight below rel_tol times the retained
        rate weight; must be positive.

    Raises
    ------
    DomainError
        If rel_tol is not positive: no finite q_max can meet it.
    TruncationError
        If a density's ``tail_supremum`` gives no finite bound, or the
        harmonic cap is reached.
    """
    if not rel_tol > 0.0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")
    if len(densities) != h.n_couplings:
        raise DimensionError(
            f"{h.n_couplings} couplings but {len(densities)} spectral densities"
        )
    dim, dec = h.dim, h.decomposition
    cluster = dec.cluster_index.reshape(-1)
    pairs = np.zeros((dim * dim, dim * dim), dtype=complex)
    held = [0.0] * len(densities)  # Parseval weight retained per coupling
    totals = [float(np.sum(np.abs(s) ** 2)) for s in h.couplings]  # and in all, ||S||_F^2
    quasi = dec.quasienergies
    spread = float(np.max(quasi) - np.min(quasi)) if len(quasi) else 0.0
    q_max = h.q_max
    q_values = np.arange(-q_max, q_max + 1)
    rounds = []
    while True:
        coefficients = h.harmonics(q_values)
        # The elements of a cluster share its frequencies omega + q Omega.
        frequencies = dec.frequencies + q_values[:, None] * h.model.omega
        # Smallest |omega + q Omega| over the discarded harmonics |q| > q_max.
        tail_start = (q_max + 1) * h.model.omega - spread
        tail_bound = 0.0
        for alpha, density in enumerate(densities):
            flat = coefficients[alpha].reshape(len(q_values), dim * dim)
            power = np.abs(flat) ** 2
            held[alpha] += float(np.sum(power))
            # gamma(omega + q Omega) on the clusters that hold weight.
            live = np.zeros(len(dec.frequencies), dtype=bool)
            live[cluster[power.any(axis=0)]] = True
            rate = np.zeros(frequencies.shape)
            rate[:, live] = density.evaluate(frequencies[:, live])
            # T += C† (r ∘ C); r[q, (k,l)] is the rate of (k,l)'s cluster.
            pairs += (flat.conj() * rate[:, cluster]).T @ flat
            leftover = max(totals[alpha] - held[alpha], 0.0)
            if leftover > _PARSEVAL_FLOOR * totals[alpha]:
                tail_bound += leftover * density.tail_supremum(tail_start)
        if math.isinf(tail_bound) or math.isnan(tail_bound):
            raise TruncationError(
                "spectral density admits no finite bound over the harmonic "
                "tail; the generator series cannot be certified to converge"
            )
        rounds.append((q_max, tail_bound))
        # tr T = sum r |C|^2 is the retained rate weight.
        if tail_bound <= rel_tol * np.trace(pairs).real + 1e-300:
            # Secular: no element is coupled across frequency clusters.
            label = dec.cluster_index.reshape(1, -1, order="F")
            superop_f = np.where(label.T == label, _dissipator(pairs, dim), 0.0)
            return LindbladGenerator(
                floquet_superop=superop_f,
                truncation=TruncationInfo(q_max, tail_bound, tuple(rounds)),
                decomposition=dec,
                blocks=_bohr_blocks(superop_f, dec.cluster_index),
            )
        if q_max >= _Q_CAP:
            raise TruncationError(
                f"tail bound {tail_bound:.3e} still above target at "
                f"q_max = {q_max}"
            )
        new = np.arange(q_max + 1, min(2 * q_max, _Q_CAP) + 1)
        q_values = np.concatenate([-new[::-1], new])
        q_max = int(new[-1])


def _suppression_factor(x):
    """1 - tanh(x)/x, stable near x = 0; elementwise for an array.

    The direct form loses six digits to cancellation at small x; the
    series takes over below 0.05 with error far under 1e-15 relative.
    tanh is math.tanh, so an array holds the bits of the float calls.
    """
    x = np.asarray(x, dtype=float)
    factor = np.empty_like(x)
    small = x < 0.05
    x2 = x[small] * x[small]
    factor[small] = x2 * (
        1.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 * (17.0 / 315.0 - x2 * 62.0 / 2835.0))
    )
    direct = x[~small]
    factor[~small] = 1.0 - _math_map(math.tanh, direct) / direct
    return factor if factor.ndim else float(factor)


def rate_parallel_closed(period, t2: float, tau_c: float) -> RateResult:
    """Coherence decay rate for kicked dephasing with a Lorentzian bath.

    eta = (1/t2) [1 - (2 tau_c / period) tanh(period / (2 tau_c))].
    Monotone in the kick rate: frequent kicks (period << tau_c) suppress
    the rate as period^2/(12 tau_c^2 t2); rare kicks leave 1/t2.

    ``period`` is a float or an array of periods, and ``eta`` is then a
    float or an array of rates.  Each rate has the bits of its float call
    on every host: tanh is the math module's, and the rest is IEEE
    arithmetic, in the same order.  A rate above the largest double is inf.
    """
    period = np.asarray(period, dtype=float)
    if not (np.all(period > 0.0) and t2 > 0.0 and tau_c > 0.0):
        raise DomainError("period, t2, tau_c must all be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as for floats
        eta = _suppression_factor(period / (2.0 * tau_c)) / t2
    return RateResult(eta=eta)


def rate_perp_closed(omega, coupling: float, cutoff: float) -> RateResult:
    """Decay rate for resonant transverse coupling to a zero-temperature
    cubic-cutoff bath, as a function of the kick frequency omega.

    eta = (A omega^3 / (4 pi^2)) coth(x) / sinh(x), x = omega/(2 cutoff),
    evaluated as (A omega^3 / (2 pi^2)) z (1 + z^2) / (1 - z^2)^2 with
    z = e^{-x}, which cannot overflow at large x.  1 - z^2 is taken as
    -expm1(-2x), which keeps its digits where omega << cutoff.  Where
    omega^3, A omega^3, z or (omega/cutoff)^2 would leave the normal
    double range, the same product is formed from the frexp mantissas of
    A, omega and 1 - z^2, with z = e^{-r} 2^{-n} from bath's _exp_split,
    and its _ldexp restores the powers of two.  Where omega/cutoff itself
    underflows, 1 - z^2 is its limit omega/cutoff, the next term being
    omega/(2 cutoff) smaller.  A rate above the largest double is inf.

    ``omega`` is a float or an array of frequencies, and ``eta`` is then a
    float or an array of rates.  Each rate has the bits of its float call
    on every host: exp, expm1 and the powers are the math module's and
    the float power, and the rest is IEEE arithmetic, in the same order.
    Only the points to rescale take a Python step each.
    """
    shape = np.shape(omega)
    omega = np.asarray(omega, dtype=float).ravel()
    if not (np.all(omega > 0.0) and 0.0 < coupling < math.inf
            and 0.0 < cutoff < math.inf):
        raise DomainError("need omega > 0 and finite coupling, cutoff > 0")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as for floats
        x = omega / (2.0 * cutoff)
        z = _math_map(math.exp, -x)
        z2 = z * z
        shrink = _math_map(math.expm1, -omega / cutoff)
        # The product's factors: coupling and omega^3 as they are, or their
        # mantissas where an intermediate is not a normal double.
        scale, cube = np.full_like(omega, coupling), np.zeros_like(omega)
        normal = (_CUBE_MIN < omega) & (omega < _CUBE_MAX)
        normal &= (shrink < -2e-154) & (z >= _TINY)
        cube[normal] = _math_map(pow, omega[normal], 3.0)
        normal &= (1e-290 < coupling * cube) & (coupling * cube < math.inf)
        rescaled = np.flatnonzero(~normal).tolist()
        exponents = []
        for i in rescaled:
            scale[i], cube[i], shrink[i], z[i], exponent = _perp_mantissas(
                omega[i].item(), coupling, cutoff, shrink[i].item(), z[i].item()
            )
            exponents.append(exponent)
        eta = (
            scale * cube / (2.0 * math.pi**2) * z * (1.0 + z2)
            / _math_map(pow, shrink, 2.0)
        )
    for i, exponent in zip(rescaled, exponents):
        eta[i] = _ldexp(eta[i].item(), exponent)
    return RateResult(eta=eta.reshape(shape) if shape else eta[0].item())


def _perp_mantissas(
    omega: float, coupling: float, cutoff: float, shrink: float, z: float
) -> tuple[float, float, float, float, int]:
    """(coupling, omega^3, 1 - z^2, z, n) for rate_perp_closed's product
    at one point, from frexp mantissas and _exp_split, so that the rate is
    the product times 2^n."""
    exponent = 0
    if omega / cutoff < _TINY:  # then 1 - z^2 is omega/cutoff
        (omega_m, w), (cutoff_m, c) = math.frexp(omega), math.frexp(cutoff)
        shrink, exponent = -omega_m / cutoff_m, -2 * (w - c)
    if z < _TINY:
        z, n = _exp_split(omega / (2.0 * cutoff))
        exponent -= n
    (coupling, a), (omega, w), (shrink, s) = map(
        math.frexp, (coupling, omega, shrink)
    )
    return coupling, omega**3, shrink, z, exponent + a + 3 * w - 2 * s


def semigroup(g: LindbladGenerator, t: float) -> np.ndarray:
    """Map e^{tL} as a superoperator matrix; defined for finite t >= 0 only.

    Raises NumericFailure where it has an inf or NaN entry."""
    if not 0.0 <= t < math.inf:
        raise DomainError(f"semigroup defined for finite t >= 0, got {t}")
    change = g.decomposition.change
    floquet_map = g.blocks.propagate(np.eye(len(change), dtype=complex), [t])[0]
    return change @ floquet_map @ change.conj().T


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij M(E_ij) kron E_ij of a superoperator M.

    With column stacking, M[(a,b), (i,j)] is the (a,b) entry of M(E_ij),
    so the Choi matrix is M realigned: C[(a,i), (b,j)] = M[(a,b), (i,j)].
    """
    superop = np.asarray(superop, dtype=complex)
    dim = math.isqrt(len(superop))
    if superop.shape != (dim * dim, dim * dim):
        raise DimensionError(
            f"superoperator of shape {superop.shape} is not d^2 x d^2"
        )
    blocks = superop.reshape(dim, dim, dim, dim).transpose(1, 3, 0, 2)
    return blocks.reshape(superop.shape)


class CPTPReport(NamedTuple):
    trace_defect: float
    choi_min_eig: float
    passed: bool


def verify_cptp(superop: np.ndarray) -> CPTPReport:
    """Check a map for trace preservation and complete positivity.

    ``trace_defect`` is the sup-norm violation of Tr(M rho) = Tr(rho) on
    the matrix-unit basis; ``choi_min_eig`` the smallest eigenvalue of the
    (Hermitized) Choi matrix.  The report passes iff both violations are
    at most 1e-10.
    """
    choi = choi_matrix(superop)
    identity_dual = vec(np.eye(math.isqrt(len(choi)), dtype=complex)).conj()
    defect = float(np.max(np.abs(identity_dual @ superop - identity_dual)))
    lowest = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
    return CPTPReport(
        trace_defect=defect,
        choi_min_eig=lowest,
        passed=defect <= _CPTP_TOL and lowest >= -_CPTP_TOL,
    )
