"""Generator assembly and closed-form rate tests."""

import math

import numpy as np
import pytest
from conftest import (
    conjugation_superop,
    eta_from_generator,
    magic_model,
    rand_density,
    rand_herm,
    reference_generator,
    vectorize,
)

from floqlind import lindblad
from floqlind.bath import Lorentzian, PhononCutoff, Tabulated
from floqlind.errors import DimensionError, DomainError, TruncationError
from floqlind.floquet import KickedModel, harmonic_decomposition
from floqlind.lindblad import (
    RateResult,
    TruncationInfo,
    build_generator,
    choi_matrix,
    combine_rates,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
    verify_cptp,
)
from floqlind.operators import PAULI_Z, unvec, vec

# ------------------------------------------------------------- closed forms


def test_parallel_rate_rare_kick_limit():
    r = rate_parallel_closed(period=1000.0, t2=3.0, tau_c=1.0)
    assert r.eta * 3.0 == pytest.approx(1.0, rel=3e-3)


def test_parallel_rate_at_twice_the_correlation_time():
    r = rate_parallel_closed(period=2.0, t2=1.0, tau_c=1.0)
    assert r.eta == pytest.approx(1.0 - math.tanh(1.0), abs=1e-12)
    assert r.eta == pytest.approx(0.2384058440, abs=1e-9)


def test_parallel_rate_fast_kick_law():
    t2, tau_c = 1.0, 1.0
    period = tau_c / 100.0
    r = rate_parallel_closed(period, t2, tau_c)
    quadratic = period**2 / (12.0 * tau_c**2) / t2
    assert r.eta == pytest.approx(quadratic, rel=1e-4)


def test_parallel_rate_monotonicity():
    etas = [
        rate_parallel_closed(p, 2.0, 1.0).eta for p in np.geomspace(0.01, 50, 25)
    ]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    etas_tau = [
        rate_parallel_closed(1.0, 2.0, tc).eta for tc in np.geomspace(0.01, 50, 25)
    ]
    assert all(a > b for a, b in zip(etas_tau, etas_tau[1:]))


def test_closed_form_validation():
    with pytest.raises(ValueError):
        rate_parallel_closed(period=0.0, t2=1.0, tau_c=1.0)
    with pytest.raises(ValueError):
        rate_parallel_closed(period=1.0, t2=-1.0, tau_c=1.0)
    with pytest.raises(ValueError):
        rate_perp_closed(omega=-2.0, coupling=1.0, cutoff=1.0)
    with pytest.raises(ValueError):
        rate_perp_closed(omega=1.0, coupling=1.0, cutoff=0.0)
    with pytest.raises(ValueError):
        RateResult(eta=-0.1, meta={})


def test_perp_rate_deep_cutoff_asymptote():
    coupling, cutoff = 0.7, 1.0
    omega = 40.0 * cutoff
    r = rate_perp_closed(omega, coupling, cutoff)
    bare = coupling * omega**3 / (2.0 * math.pi**2) * math.exp(-omega / (2 * cutoff))
    assert r.eta == pytest.approx(bare, rel=1e-8)


def test_perp_rate_two_algebraic_forms_agree():
    rng = np.random.default_rng(6)
    for x in rng.uniform(0.05, 30.0, 100):
        z = math.exp(-x)
        stable = 2.0 * z * (1.0 + z * z) / (1.0 - z * z) ** 2
        direct = (1.0 / math.tanh(x)) / math.sinh(x)
        assert stable == pytest.approx(direct, rel=1e-12)


def test_perp_rate_matches_direct_harmonic_summation():
    coupling, cutoff = 0.8, 1.0
    omega = cutoff
    q = np.arange(0, 400)
    freq = (q + 0.5) * omega
    total = (
        (4.0 * coupling / math.pi**2)
        * np.sum(freq**3 * np.exp(-freq / cutoff) / (2 * q + 1.0) ** 2)
    )
    assert rate_perp_closed(omega, coupling, cutoff).eta == pytest.approx(
        float(total), rel=1e-10
    )


def test_combine_rates():
    assert combine_rates([]).eta == 0.0
    a = rate_parallel_closed(1.0, 1.0, 1.0)
    b = rate_perp_closed(1.0, 1.0, 1.0)
    combined = combine_rates([a, b])
    assert combined.eta == pytest.approx(a.eta + b.eta, rel=1e-15)
    assert combined.meta["parts"] == [a.meta, b.meta]


# ------------------------------------------------------- generator assembly


def test_generator_matches_closed_form_rate_dephasing(longitudinal):
    extracted = eta_from_generator(longitudinal.generator)
    assert extracted == pytest.approx(longitudinal.eta, rel=1e-8)


def test_generator_matches_closed_form_rate_transverse(transverse):
    extracted = eta_from_generator(transverse.generator)
    assert extracted == pytest.approx(transverse.eta, rel=1e-10)


def test_generator_floquet_basis_matrix_structure(longitudinal):
    g = longitudinal.generator
    in_basis = g.floquet_superop() / longitudinal.eta
    expected = np.array(
        [
            [-1.0, 0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
        ]
    )
    np.testing.assert_allclose(in_basis, expected, atol=1e-8)


@pytest.mark.parametrize("which", ["longitudinal", "transverse"])
def test_generator_population_coherence_decoupling(which, request):
    g = request.getfixturevalue(which).generator
    in_basis = g.floquet_superop()
    for row in (0, 3):
        for col in (1, 2):
            assert abs(in_basis[row, col]) < 1e-12
            assert abs(in_basis[col, row]) < 1e-12


def test_generator_spectral_norm_is_twice_the_rate(longitudinal):
    import scipy.linalg

    norm = scipy.linalg.norm(longitudinal.generator.superop, 2)
    assert norm == pytest.approx(2.0 * longitudinal.eta, rel=1e-8)


def test_generator_contributions_are_consistent(longitudinal):
    """The generator is the rate-weighted sum of its components' dissipators,
    each rate read off the density at omega + q Omega."""
    g = longitudinal.generator
    superop, q_max, _ = reference_generator(
        longitudinal.harmonics, (longitudinal.density,), rel_tol=1e-10
    )
    assert q_max == g.truncation.q_max_used
    scale = np.max(np.abs(superop))
    assert scale > 0.0
    np.testing.assert_allclose(g.superop, superop, rtol=0.0, atol=1e-13 * scale)


def _random_model(seed, dim):
    rng = np.random.default_rng(seed)
    h0, kick = rand_herm(rng, dim), rand_herm(rng, dim)
    model = KickedModel(
        h0=h0 / np.linalg.norm(h0, 2), kick=kick / np.linalg.norm(kick, 2),
        strength=1.0, period=1.0,
    )
    couplings = [rand_herm(rng, dim) for _ in range(2)]
    return model, [s / np.linalg.norm(s) for s in couplings]


def _equivalence_cases():
    tls = magic_model(0.6, 1.3), [PAULI_Z / math.sqrt(2.0)]
    lorentz = Lorentzian(t2=2.0, tau_c=3.0)
    qutrit, qutrit_couplings = _random_model(5, 3)
    qudit, qudit_couplings = _random_model(8, 8)
    baths = (Lorentzian(t2=2.0, tau_c=0.3), PhononCutoff(0.05, 1.0, beta=2.0))
    return {
        "tls-1e-8": (*tls, [lorentz], 64, 1e-8),
        "tls-1e-12": (*tls, [lorentz], 64, 1e-12),
        "random-d3": (qutrit, qutrit_couplings, baths, 8, 1e-8),
        "random-d8": (qudit, qudit_couplings, baths, 16, 1e-6),
    }


@pytest.mark.parametrize("case", sorted(_equivalence_cases()))
def test_generator_matches_the_per_component_reference(case):
    model, couplings, densities, q_max, rel_tol = _equivalence_cases()[case]
    h = harmonic_decomposition(model, couplings, q_max=q_max)
    g = build_generator(h, densities, rel_tol=rel_tol)
    superop, q_max_used, tail_bound = reference_generator(h, densities, rel_tol)
    assert g.truncation.q_max_used == q_max_used
    scale = np.max(np.abs(superop))
    np.testing.assert_allclose(g.superop, superop, rtol=0.0, atol=1e-13 * scale)
    assert g.truncation.tail_bound == pytest.approx(tail_bound, rel=1e-9, abs=0.0)


def test_generator_truncation_tightens_with_tolerance(longitudinal):
    loose = build_generator(
        longitudinal.harmonics, (longitudinal.density,), rel_tol=1e-6
    )
    tight = build_generator(
        longitudinal.harmonics, (longitudinal.density,), rel_tol=1e-12
    )
    assert tight.truncation.q_max_used >= loose.truncation.q_max_used
    assert tight.truncation.tail_bound <= loose.truncation.tail_bound
    assert loose.truncation.tail_bound >= 0.0


def test_generator_zero_coupling_yields_the_zero_map():
    h = harmonic_decomposition(
        magic_model(), [np.zeros((2, 2), dtype=complex)], q_max=4
    )
    g = build_generator(h, [Lorentzian(t2=1.0, tau_c=1.0)])
    assert np.max(np.abs(g.superop)) == 0.0
    assert g.truncation == TruncationInfo(q_max_used=4, tail_bound=0.0)


def test_generator_no_couplings_yields_the_zero_map():
    h = harmonic_decomposition(magic_model(), [], q_max=4)
    g = build_generator(h, [])
    assert g.superop.shape == (4, 4)
    assert np.max(np.abs(g.superop)) == 0.0


def test_generator_density_count_must_match():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    with pytest.raises(DimensionError):
        build_generator(h, [])


def test_generator_rejects_densities_without_tail_bounds():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    grid = np.linspace(-50.0, 50.0, 101)
    density = Tabulated(grid=grid, values=np.ones_like(grid))
    with pytest.raises(TruncationError):
        build_generator(h, [density])


def test_generator_harmonic_cap(monkeypatch, longitudinal):
    monkeypatch.setattr(lindblad, "_Q_CAP", 256)
    with pytest.raises(TruncationError):
        build_generator(
            longitudinal.harmonics, (longitudinal.density,), rel_tol=1e-30
        )


# ----------------------------------------------------------------- semigroup


def test_semigroup_at_time_zero_is_the_identity(longitudinal):
    np.testing.assert_allclose(
        semigroup(longitudinal.generator, 0.0), np.eye(4), atol=1e-14
    )
    with pytest.raises(DomainError):
        semigroup(longitudinal.generator, -0.5)


def test_semigroup_contracts_floquet_components(longitudinal):
    g = longitudinal.generator
    eta = longitudinal.eta
    v = g.basis
    rho_f = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    rho0 = v @ rho_f @ v.conj().T
    t = 1.0 / eta
    rho_t = unvec(semigroup(g, t) @ vec(rho0))
    back = v.conj().T @ rho_t @ v
    decay = math.exp(-1.0)
    assert back[1, 0] == pytest.approx(0.2 * decay, rel=1e-8)
    assert back[0, 1] == pytest.approx(0.2 * decay, rel=1e-8)
    diff = (back[0, 0] - back[1, 1]).real
    assert diff == pytest.approx(0.4 * math.exp(-2.0), rel=1e-8)
    assert np.trace(back).real == pytest.approx(1.0, abs=1e-12)


def test_semigroup_long_time_limit_is_maximally_mixed(longitudinal):
    rng = np.random.default_rng(9)
    rho0 = rand_density(rng, 2)
    t = 50.0 / longitudinal.eta
    rho_inf = unvec(semigroup(longitudinal.generator, t) @ vec(rho0))
    np.testing.assert_allclose(rho_inf, np.eye(2) / 2.0, atol=1e-10)


# ----------------------------------------------------------------- CPTP audit


def test_verify_cptp_accepts_the_identity_map():
    report = verify_cptp(np.eye(4, dtype=complex))
    assert report.passed
    assert report.trace_defect <= 1e-14
    assert report.choi_min_eig >= -1e-14


def test_verify_cptp_rejects_transposition():
    transpose = vectorize(lambda rho: rho.T, 2)
    report = verify_cptp(transpose)
    assert not report.passed
    assert report.choi_min_eig == pytest.approx(-1.0, abs=1e-12)
    assert report.trace_defect <= 1e-14


def test_choi_of_a_unitary_conjugation_is_a_rank_one_projector():
    rng = np.random.default_rng(14)
    from scipy.linalg import expm

    u = expm(1j * (lambda a: (a + a.conj().T) / 2)(rng.standard_normal((2, 2))))
    choi = choi_matrix(conjugation_superop(u))
    eigs = np.linalg.eigvalsh(choi)
    assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        choi_matrix(np.eye(5))
    with pytest.raises(DimensionError):
        choi_matrix(np.ones((4, 9)))
    with pytest.raises(DimensionError):
        verify_cptp(np.eye(5))


@pytest.mark.parametrize("which", ["longitudinal", "transverse"])
def test_assembled_generators_produce_cptp_maps(which, request):
    g = request.getfixturevalue(which).generator
    rng = np.random.default_rng(10)
    eta = eta_from_generator(g)
    for t in rng.uniform(0.0, 5.0 / eta, 20):
        report = verify_cptp(semigroup(g, float(t)))
        assert report.passed, (t, report)
