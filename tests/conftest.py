"""Shared builders and fixtures for the test suite.

The magic-angle kicked two-level system (pi/2-strength kicks about axis 1)
is the workhorse: its Floquet problem is solvable by hand, so tests can
pin harmonic coefficients and decay rates against closed-form numbers.
Two assembled generators are session fixtures because building them at
tight tolerance is the most expensive setup step.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import floqlind
from floqlind import bath, cli, floquet, lindblad
from floqlind.bath import Lorentzian, PhononCutoff, SpectralDensity
from floqlind.echo import GaussianDetuning, UniformDetuning
from floqlind.errors import DomainError
from floqlind.floquet import (
    KickedModel,
    decompose,
    harmonic_decomposition,
    propagator,
    propagator_left_limit,
)
from floqlind.lindblad import (
    build_generator,
    rate_parallel_closed,
    rate_perp_closed,
)
from floqlind.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_density,
    bloch_from_density,
    dissipator_superop,
    expm_general,
    unvec,
    vec,
)

# The directory that holds the floqlind package, for scripts run in a fresh
# interpreter.
SRC = str(Path(floqlind.__file__).resolve().parent.parent)


def _fresh_env():
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    return env


def _stdout(script, argv, env, timeout):
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=timeout).stdout.split()


def run_at_both_simd_levels(script, *argv, timeout=120):
    """The whitespace-split stdout of ``python -c script *argv``, run once
    with numpy's AVX-512 kernels on and once off (as on an AVX2 host).  On a
    host without AVX-512 both runs take the same kernels."""
    env = _fresh_env()
    emulated = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    return [_stdout(script, argv, e, timeout) for e in (env, emulated)]


def run_with_haswell_blas(script, *argv, timeout=120):
    """The whitespace-split stdout of ``python -c script *argv`` with
    OpenBLAS made to take its Haswell (AVX2) kernels, as on an AVX2 host,
    whatever kernels it would pick here."""
    env = {**_fresh_env(), "OPENBLAS_CORETYPE": "Haswell"}
    return _stdout(script, argv, env, timeout)


def rand_herm(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def rand_density(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def magic_model(delta=0.0, period=1.0, strength=math.pi / 2.0):
    """Kicked TLS: detuning splitting along axis 3, kicks about axis 1."""
    return KickedModel(
        h0=0.5 * delta * PAULI_Z, kick=PAULI_X, strength=strength, period=period
    )


def analytic_floquet_pair(delta, period):
    """Hand-derived Floquet eigenvectors of the magic-angle TLS.

    The one-period operator is -i [[0, e^{i d}], [e^{-i d}, 0]] with
    d = delta * period / 2; these two vectors diagonalize it with
    quasienergies +pi/(2T) and -pi/(2T) respectively.  The numerical
    basis agrees only up to column phases, so tests contract dyads with
    this pair instead of comparing eigenvector entries.
    """
    phase = np.exp(0.5j * delta * period)
    phi_plus = np.array([phase, 1.0]) / math.sqrt(2.0)
    phi_minus = np.array([-phase, 1.0]) / math.sqrt(2.0)
    return phi_plus, phi_minus


def eta_from_generator(generator):
    """Coherence decay rate read off the Floquet-basis generator.

    In the Floquet basis the generator block-diagonalizes; the diagonal
    entry on the first off-diagonal matrix unit is -eta.
    """
    return -float(generator.floquet_superop[1, 1].real)


def averaged_hamiltonian(dec):
    """Hbar = V diag(eps) V†, whose e^{-i Hbar T} is the Floquet operator."""
    hbar = (dec.basis * dec.quasienergies) @ dec.basis.conj().T
    return 0.5 * (hbar + hbar.conj().T)


def vectorize(map_action, dim):
    """Matrix of a linear map on dim x dim matrices, column-stacking convention.

    The map is sampled on all matrix units, so the result reproduces
    ``map_action`` exactly (up to the map's own arithmetic) on any input.
    """
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j in range(dim):
        for i in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            out[:, i + j * dim] = vec(map_action(unit))
    return out


def conjugation_superop(u):
    """Superoperator of rho -> U rho U†."""
    u = np.asarray(u, dtype=complex)
    return np.kron(u.conj(), u)


def frequency_label(h, omega):
    """Index of the frequency cluster of ``h`` matching ``omega``."""
    frequencies = h.decomposition.frequencies
    if len(frequencies) == 0:
        raise KeyError("decomposition has no frequency clusters")
    idx = int(np.argmin(np.abs(frequencies - omega)))
    tol = 1e-6 * max(h.model.omega, 1.0)
    if abs(frequencies[idx] - omega) > tol:
        raise KeyError(f"no frequency cluster near {omega}")
    return idx


def harmonics_to_q_max(h):
    """``h.harmonics`` at q = -q_max .. q_max, indexed [alpha, q + q_max, k, l]."""
    return h.harmonics(np.arange(-h.q_max, h.q_max + 1))


def component(h, alpha, omega, q, basis="floquet"):
    """Matrix S_alpha(omega, q) of ``h``, in the Floquet or original basis."""
    if abs(q) > h.q_max:
        raise KeyError(f"|q| = {abs(q)} exceeds q_max = {h.q_max}")
    mask = h.decomposition.cluster_index == frequency_label(h, omega)
    mat = np.where(mask, h.harmonics(np.array([q]))[alpha, 0], 0.0)
    if basis == "floquet":
        return mat
    if basis == "original":
        v = h.decomposition.basis
        return v @ mat @ v.conj().T
    raise ValueError(f"unknown basis {basis!r}")


def parseval_weight(h, alpha):
    """Squared Frobenius weight a coupling's harmonics |q| <= q_max hold."""
    return float(np.sum(np.abs(harmonics_to_q_max(h)[alpha]) ** 2))


def reference_generator(h, densities, rel_tol):
    """Per-component reference for ``build_generator``.

    Every doubling round recomputes the decomposition from scratch,
    evaluates each rate as a scalar and adds one kron-built dissipator per
    (coupling, frequency cluster, harmonic) component, each component
    taken to the original basis first.  Returns the superoperator in the
    original basis, q_max and the tail bound.
    """
    model, couplings, q_max = h.model, list(h.couplings), h.q_max
    while True:
        current = harmonic_decomposition(model, couplings, q_max)
        coefficients = harmonics_to_q_max(current)
        terms = []  # (rate, component) of every nonzero component
        scale = tail_bound = 0.0
        quasi = current.decomposition.quasienergies
        tail_start = (q_max + 1) * model.omega - float(np.ptp(quasi))
        for alpha, density in enumerate(densities):
            for idx, omega in enumerate(current.decomposition.frequencies):
                mask = current.decomposition.cluster_index == idx
                for q in range(-q_max, q_max + 1):
                    component = np.where(mask, coefficients[alpha, q + q_max], 0.0)
                    weight = float(np.sum(np.abs(component) ** 2))
                    if weight == 0.0:
                        continue
                    rate = density.evaluate(float(omega) + q * model.omega)
                    assert rate >= 0.0
                    terms.append((rate, component))
                    scale += rate * weight
            total = float(np.sum(np.abs(couplings[alpha]) ** 2))
            leftover = max(total - parseval_weight(current, alpha), 0.0)
            if leftover > lindblad._PARSEVAL_FLOOR * total:
                tail_bound += leftover * density.tail_supremum(tail_start)
        if tail_bound <= rel_tol * scale + 1e-300:
            break
        q_max *= 2
    basis = current.decomposition.basis
    superop = np.zeros((h.dim**2, h.dim**2), dtype=complex)
    for rate, component in terms:
        superop += rate * dissipator_superop(basis @ component @ basis.conj().T)
    return superop, q_max, tail_bound


def reference_evolve(m, g, rho0, times, frame="rotating", omega_ext=None,
                     emit_left_limits=False):
    """Per-time reference for ``dynamics.evolve``: (states, left_states).

    At each time: one ``expm`` of the whole superoperator, one propagator
    (and one left-limit propagator), one ``as_density`` per matrix.
    """
    dec = decompose(m)
    rho_vec = vec(as_density(rho0))
    states, left_states = [], []
    for t in np.asarray(times, dtype=float).tolist():
        interaction = unvec(expm_general(g.superop, t) @ rho_vec)
        if frame == "interaction":
            states.append(as_density(interaction))
            left_states.append(states[-1])
            continue
        carrier = 1.0 if frame == "rotating" else np.exp(
            -0.5j * omega_ext * t * np.array([[1.0], [-1.0]])
        )
        u = carrier * propagator(dec, t)
        states.append(as_density(u @ interaction @ u.conj().T))
        if emit_left_limits:
            u = carrier * propagator_left_limit(dec, t)
            left_states.append(as_density(u @ interaction @ u.conj().T))
    return np.array(states), np.array(left_states) if emit_left_limits else None


def reference_floor_frac(t, period):
    """Scalar reference for ``floquet.floor_frac``: (int n, float frac)."""
    raw = t / period
    if not (t >= 0.0 and math.isfinite(raw)):
        raise DomainError(
            f"time must be >= 0 with t/period finite, got t = {t} at period {period}"
        )
    n = math.floor(raw)
    frac = raw - n
    fuzz = 2.0 * math.ulp(raw)
    if frac > 1.0 - max(1e-9, fuzz):
        return n + 1, 0.0
    if frac <= fuzz:
        return n, 0.0
    return n, frac


def reference_cluster_frequencies(quasienergies, omega):
    """Loop reference for ``floquet._cluster_frequencies``: walk the sorted
    differences, start a cluster at each gap above the tolerance, and take
    each cluster's ``np.mean``."""
    tol = floquet._BOHR_TOL * omega
    d = len(quasienergies)
    diffs = quasienergies[:, None] - quasienergies[None, :]
    flat = diffs.reshape(-1)
    order = np.argsort(flat)
    labels = np.empty(d * d, dtype=int)
    reps: list[float] = []
    members: list[float] = []
    for pos in order:
        value = flat[pos]
        if members and value - members[-1] > tol:
            reps.append(float(np.mean(members)))
            members = []
        members.append(value)
        labels[pos] = len(reps)
    if members:
        reps.append(float(np.mean(members)))
    return np.asarray(reps), labels.reshape(d, d)


def _reference_rate(eta):
    """The per-float check of ``lindblad.RateResult``: eta, or its error."""
    if math.isnan(eta):
        raise FloatingPointError("decay rate is NaN: an intermediate overflowed")
    if not eta >= 0.0:
        raise ValueError(f"decay rate must be nonnegative, got {eta}")
    return eta


def reference_rate_parallel_closed(period, t2, tau_c):
    """Float reference for ``lindblad.rate_parallel_closed(...).eta``."""
    if not (period > 0.0 and t2 > 0.0 and tau_c > 0.0):
        raise ValueError("period, t2, tau_c must all be positive")
    x = period / (2.0 * tau_c)
    if x < 0.05:
        x2 = x * x
        factor = x2 * (
            1.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 * (17.0 / 315.0 - x2 * 62.0 / 2835.0))
        )
    else:
        factor = 1.0 - math.tanh(x) / x
    return _reference_rate(factor / t2)


def reference_rate_perp_closed(omega, coupling, cutoff):
    """Float reference for ``lindblad.rate_perp_closed(...).eta``: the
    guard, the frexp rescaling and the formula, one point at a time."""
    if not (omega > 0.0 and coupling > 0.0 and cutoff > 0.0):
        raise ValueError("omega, coupling, cutoff must all be positive")
    x = omega / (2.0 * cutoff)
    z = math.exp(-x)
    z2 = z * z
    shrink = math.expm1(-omega / cutoff)
    exponent = 0
    if not (
        bath._CUBE_MIN < omega < bath._CUBE_MAX and shrink < -2e-154
        and z >= bath._TINY and 1e-290 < coupling * omega**3 < math.inf
    ):
        if omega / cutoff < bath._TINY:
            (omega_m, w), (cutoff_m, c) = math.frexp(omega), math.frexp(cutoff)
            shrink, exponent = -omega_m / cutoff_m, -2 * (w - c)
        if z < bath._TINY:
            z, n = bath._exp_split(x)
            exponent -= n
        (coupling, a), (omega, w), (shrink, s) = map(
            math.frexp, (coupling, omega, shrink)
        )
        exponent += a + 3 * w - 2 * s
    eta = coupling * omega**3 / (2.0 * math.pi**2) * z * (1.0 + z2) / shrink**2
    return _reference_rate(bath._ldexp(eta, exponent))


def _reference_decay(eta, t, n):
    """(slow, fast) = ((-1)^n e^{-eta t}, e^{-2 eta t})."""
    return (-1.0) ** n * math.exp(-eta * t), math.exp(-2.0 * eta * t)


def reference_closed_form_parallel(p, rho0, t):
    """Reference for ``dynamics.closed_form_parallel``, through cmath."""
    x0 = bloch_from_density(as_density(rho0))
    n, frac = reference_floor_frac(t, p.period)
    slow, fast = _reference_decay(p.eta, t, n)
    phase_now = p.omega_ext * t + p.delta * p.period * (frac - 0.5)
    phase_start = -0.5 * p.delta * p.period
    along = x0[0] * math.cos(phase_start) + x0[1] * math.sin(phase_start)
    across = x0[0] * math.sin(phase_start) - x0[1] * math.cos(phase_start)
    coherence = 0.5 * cmath.exp(1j * phase_now) * (fast * along - 1j * slow * across)
    population = 0.5 * (1.0 + slow * x0[2])
    return np.array(
        [[population, np.conj(coherence)], [coherence, 1.0 - population]],
        dtype=complex,
    )


def reference_closed_form_perp(p, rho0, t):
    """Reference for ``dynamics.closed_form_perp`` (delta = 0)."""
    x0 = bloch_from_density(as_density(rho0))
    n, _ = reference_floor_frac(t, p.period)
    slow, fast = _reference_decay(p.eta, t, n)
    x1_int, x2_int = fast * x0[0], slow * x0[1]
    cos_t, sin_t = math.cos(p.omega0 * t), math.sin(p.omega0 * t)
    x1 = cos_t * x1_int - sin_t * x2_int
    x2 = sin_t * x1_int + cos_t * x2_int
    x3 = slow * x0[2]
    coherence = 0.5 * (x1 + 1j * x2)
    return np.array(
        [[0.5 * (1.0 + x3), np.conj(coherence)], [coherence, 0.5 * (1.0 - x3)]],
        dtype=complex,
    )


def reference_characteristic_function(e, u):
    """The ensemble's characteristic function at one float u, per point."""
    if isinstance(e, GaussianDetuning):
        try:
            return complex(math.exp(-0.5 * (e.sigma * u) ** 2))
        except OverflowError:  # the square is above the double range
            return 0j
    if isinstance(e, UniformDetuning):
        return complex(np.sinc(e.halfwidth * u / math.pi))
    return complex(np.sum(e.weights * np.exp(1j * e.deltas * u)))


def reference_echo_signal(e, p, x0, times):
    """Per-point reference for ``echo.echo_signal``: (avg_cos, avg_sin,
    transverse), each time split twice, with scalar arithmetic only."""
    x0 = np.asarray(x0, dtype=float)
    rows = []
    for t in np.asarray(times, dtype=float):
        _, frac = reference_floor_frac(float(t), p.period)
        u = p.period * (frac - 0.5)
        carrier = np.exp(1j * p.omega_ext * float(t))
        mean = carrier * reference_characteristic_function(e, u)
        cos_phi, sin_phi = float(mean.real), float(mean.imag)
        n, _ = reference_floor_frac(float(t), p.period)
        slow, fast = _reference_decay(p.eta, t, n)
        rows.append((
            cos_phi,
            sin_phi,
            fast * cos_phi * x0[0] - slow * sin_phi * x0[1],
            fast * sin_phi * x0[0] + slow * cos_phi * x0[1],
        ))
    rows = np.array(rows).reshape(-1, 4)
    return rows[:, 0], rows[:, 1], rows[:, 2:]


# The row format each scenario's table was written with, one % per row.
REFERENCE_ROW_FORMATS = {
    "rates-parallel": "\t".join(["%.12e"] * 4),
    "rates-perp": "\t".join(["%.12e"] * 3),
    "trajectory": "\t".join(["%.12e"] * 4),
    "echo": "\t".join(["%.12e"] * 5),
    "generator-audit": "%s\t%s",
    "extract-tauc": "\t".join(["%.12e"] * 3) + "\t%d",
}


def reference_write_table(path, scenario, names, row_format, columns, resolved):
    """The CLI's table writer as it was: header, then the row format applied
    to the cells of the columns, one ``%`` per row."""
    lines = [
        f"# schema_version = {cli.SCHEMA_VERSION}",
        f"# scenario = {scenario}",
    ]
    for key in sorted(resolved):
        lines.append(f"# config {key} = {resolved[key]}")
    lines.append("# columns: " + " ".join(names))
    lines += [
        row_format % row
        for row in zip(*[np.asarray(column).tolist() for column in columns])
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class CountingNumpy:
    """Stands in for numpy inside a module and counts each call made
    through it by dotted name (``add.reduceat`` included)."""

    def __init__(self, target, counts, name=""):
        self._target, self._counts, self._name = target, counts, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if not callable(value) or isinstance(value, type):
            return value
        name = f"{self._name}.{attr}" if self._name else attr
        return CountingNumpy(value, self._counts, name)

    def __call__(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._target(*args, **kwargs)


def degenerate_model(rng):
    """Kick-free qutrit whose H0 has a doubly degenerate level, so the
    zero-frequency cluster also holds the coherences inside that level."""
    return KickedModel(
        h0=np.diag([0.3, 0.3, -0.5]).astype(complex),
        kick=rand_herm(rng, 3),
        strength=0.0,
        period=1.0,
    )


def zone_edge_h0(rng):
    """Qutrit H0 with levels +-pi and 0.7 in a random basis: at T = 1 two
    of its quasienergies sit on the zone edge +-Omega/2."""
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return w @ np.diag([math.pi, -math.pi, 0.7]) @ w.conj().T


def reconstruct_heisenberg(h, t, alpha=0):
    """Partial Fourier sum sum_{omega, |q| <= q_max} S(omega,q) e^{i(omega+q Omega)t}.

    Returned in the original basis.  Converges to U(t)† S U(t) away from
    the kick times, where the Heisenberg operator is discontinuous.
    """
    quasi = h.decomposition.quasienergies
    q_values = np.arange(-h.q_max, h.q_max + 1)
    harmonic_phases = np.exp(1j * h.model.omega * t * q_values)
    summed = np.tensordot(harmonic_phases, h.harmonics(q_values)[alpha], axes=(0, 0))
    pair_phase = np.exp(1j * (quasi[:, None] - quasi[None, :]) * t)
    v = h.decomposition.basis
    return v @ (summed * pair_phase) @ v.conj().T


def kms_ratio(density, omega):
    """Detailed-balance ratio gamma(-omega) / gamma(omega); 1 at omega = 0."""
    if omega == 0.0:
        return 1.0
    return density.evaluate(-omega) / density.evaluate(omega)


def t1_time(density, omega0, beta):
    """Spin-lattice relaxation time [(1 + e^{-beta omega0}) gamma(omega0)]^{-1}.

    +inf when the density vanishes at the transition frequency.
    """
    rate = density.evaluate(omega0)
    if rate == 0.0:
        return math.inf
    exponent = 0.0 if omega0 == 0.0 else beta * omega0
    return 1.0 / ((1.0 + math.exp(-exponent)) * rate)


def t2_prime(t1, t2):
    """Combined decoherence time: 1/T2' = 1/T2 + 1/(2 T1)."""
    if not (t1 > 0.0 and t2 > 0.0):
        raise ValueError("T1 and T2 must be positive")
    inverse = 1.0 / t2 + 0.5 / t1
    return math.inf if inverse == 0.0 else 1.0 / inverse


class UnboundedDensity(SpectralDensity):
    """A flat density that vouches for no bound over any tail."""

    def evaluate(self, omega):
        return np.ones_like(omega, dtype=float) if np.ndim(omega) else 1.0

    def tail_supremum(self, threshold):
        return math.inf


@pytest.fixture
def decompose_calls(monkeypatch):
    """A list that gains one entry per ``floquet.decompose`` call, from
    whichever floqlind module makes it."""
    calls = []
    original = floquet.decompose

    def counted(m):
        calls.append(m)
        return original(m)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "floqlind":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


LONGITUDINAL = SimpleNamespace(delta=0.6, period=1.3, t2=2.0, tau_c=3.0)
TRANSVERSE = SimpleNamespace(period=math.pi, coupling=0.8, cutoff=1.0)


@pytest.fixture(scope="session")
def longitudinal():
    """Dephasing-coupled magic-angle TLS with its assembled generator."""
    p = LONGITUDINAL
    model = magic_model(p.delta, p.period)
    harmonics = harmonic_decomposition(
        model, [PAULI_Z / math.sqrt(2.0)], q_max=64
    )
    density = Lorentzian(t2=p.t2, tau_c=p.tau_c)
    generator = build_generator(harmonics, (density,), rel_tol=1e-10)
    eta = rate_parallel_closed(p.period, p.t2, p.tau_c).eta
    return SimpleNamespace(
        model=model,
        harmonics=harmonics,
        density=density,
        generator=generator,
        eta=eta,
        delta=p.delta,
        period=p.period,
        t2=p.t2,
        tau_c=p.tau_c,
    )


@pytest.fixture(scope="session")
def transverse():
    """Resonant transverse-coupled TLS at zero temperature."""
    p = TRANSVERSE
    model = magic_model(0.0, p.period)
    harmonics = harmonic_decomposition(model, [PAULI_X, PAULI_Y], q_max=64)
    density = PhononCutoff(coupling=p.coupling, cutoff=p.cutoff)
    generator = build_generator(harmonics, (density, density), rel_tol=1e-10)
    omega = 2.0 * math.pi / p.period
    eta = rate_perp_closed(omega, p.coupling, p.cutoff).eta
    return SimpleNamespace(
        model=model,
        harmonics=harmonics,
        density=density,
        generator=generator,
        eta=eta,
        period=p.period,
        coupling=p.coupling,
        cutoff=p.cutoff,
        omega=omega,
    )
