"""Shared builders and fixtures for the test suite.

The magic-angle kicked two-level system (pi/2-strength kicks about axis 1)
is the workhorse: its Floquet problem is solvable by hand, so tests can
pin harmonic coefficients and decay rates against closed-form numbers.
Two assembled generators are session fixtures because building them at
tight tolerance is the most expensive setup step.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from floqlind import lindblad
from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.floquet import KickedModel, harmonic_decomposition
from floqlind.lindblad import (
    build_generator,
    rate_parallel_closed,
    rate_perp_closed,
)
from floqlind.operators import PAULI_X, PAULI_Y, PAULI_Z, dissipator_superop, vec


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
    return -float(generator.floquet_superop()[1, 1].real)


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
    if len(h.frequencies) == 0:
        raise KeyError("decomposition has no frequency clusters")
    idx = int(np.argmin(np.abs(h.frequencies - omega)))
    tol = 1e-6 * max(h.model.omega, 1.0)
    if abs(h.frequencies[idx] - omega) > tol:
        raise KeyError(f"no frequency cluster near {omega}")
    return idx


def component(h, alpha, omega, q, basis="floquet"):
    """Matrix S_alpha(omega, q) of ``h``, in the Floquet or original basis."""
    if abs(q) > h.q_max:
        raise KeyError(f"|q| = {abs(q)} exceeds stored q_max = {h.q_max}")
    mask = h.cluster_index == frequency_label(h, omega)
    mat = np.where(mask, h.coefficients[alpha, q + h.q_max], 0.0)
    if basis == "floquet":
        return mat
    if basis == "original":
        v = h.decomposition.basis
        return v @ mat @ v.conj().T
    raise ValueError(f"unknown basis {basis!r}")


def parseval_weight(h, alpha):
    """Squared Frobenius weight held by the stored harmonics of a coupling."""
    return float(np.sum(np.abs(h.coefficients[alpha]) ** 2))


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
        terms = []  # (rate, component) of every nonzero component
        scale = tail_bound = 0.0
        quasi = current.decomposition.quasienergies
        tail_start = (q_max + 1) * model.omega - float(np.ptp(quasi))
        for alpha, density in enumerate(densities):
            for idx, omega in enumerate(current.frequencies):
                mask = current.cluster_index == idx
                for q in range(-q_max, q_max + 1):
                    component = np.where(
                        mask, current.coefficients[alpha, q + q_max], 0.0
                    )
                    weight = float(np.sum(np.abs(component) ** 2))
                    if weight == 0.0:
                        continue
                    rate = density.evaluate(float(omega) + q * model.omega)
                    assert rate >= 0.0
                    terms.append((rate, component))
                    scale += rate * weight
            total = current.coupling_weight(alpha)
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
