"""Floquet analysis tests: stroboscopic algebra, gauge, harmonics."""

import math
import re
import sys
import textwrap
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    CountingNumpy,
    analytic_floquet_pair,
    averaged_hamiltonian,
    component,
    degenerate_model,
    frequency_label,
    harmonics_to_q_max,
    magic_model,
    parseval_weight,
    rand_herm,
    reconstruct_heisenberg,
    reference_cluster_frequencies,
    reference_floor_frac,
    run_at_both_simd_levels,
    zone_edge_h0,
)

from floqlind import floquet, oracle
from floqlind.errors import DimensionError, DomainError, HermiticityError
from floqlind.floquet import (
    HarmonicDecomposition,
    KickedModel,
    _poles,
    decompose,
    floor_frac,
    floquet_operator,
    harmonic_decomposition,
    propagator,
    propagator_left_limit,
)
from floqlind.operators import PAULI_X, PAULI_Y, PAULI_Z, expm_general, expm_hermitian


def random_model(rng, dim=3, period=0.9, strength=0.7):
    return KickedModel(
        h0=rand_herm(rng, dim),
        kick=rand_herm(rng, dim),
        strength=strength,
        period=period,
    )


# ---------------------------------------------------------------- timing


def test_floor_frac_splits_time():
    n, frac = floor_frac(2.7 * 1.3, 1.3)
    assert n == 2
    assert frac == pytest.approx(0.7, abs=1e-12)
    assert floor_frac(0.0, 1.0) == (0, 0.0)


def test_floor_frac_snaps_to_kick_times():
    n, frac = floor_frac(3.0 - 1e-12, 1.0)
    assert (n, frac) == (3, 0.0)


def test_floor_frac_finds_kicks_a_billion_periods_out():
    # t / T is only known to about one ulp there, far above the 1e-9 snap
    # in absolute terms, and it errs to both sides of the integer.
    for n in range(10**9, 10**9 + 2000):
        assert floor_frac(n * 1.3, 1.3) == (n, 0.0)
    dec = decompose(random_model(np.random.default_rng(5), dim=2, period=1.3))
    t = (10**9 + 1) * 1.3
    jump = propagator_left_limit(dec, t) - propagator(dec, t)
    assert np.max(np.abs(jump)) > 1e-3


def _floor_frac_inputs():
    """(times, period) pairs: kicks, times just below kicks and random
    fractions from 1 to 10^12 periods, for periods from 1e-3 to 17."""
    rng = np.random.default_rng(11)
    counts = np.unique(np.concatenate([
        np.arange(0, 200), np.floor(np.geomspace(1.0, 1e12, 400)),
        np.floor(rng.uniform(0.0, 1e12, 100)),
    ]))
    for period in (1e-3, 0.1, 1.3, 2.0 / 3.0, 17.0):
        kicks = counts * period
        offsets = rng.uniform(0.0, 1.0, (len(counts), 16))
        fractions = (counts[:, None] + offsets) * period
        times = np.concatenate([
            kicks, np.nextafter(kicks, 0.0), kicks * (1.0 - 1e-15),
            kicks - 0.5e-9 * period, kicks - 2e-9 * period, fractions.ravel(),
        ])
        yield times[times >= 0.0], period
    edges = [0.0, 5e-324, 2.0**52, 2.0**53, sys.float_info.max]
    yield np.array(edges), 1.0


def test_floor_frac_splits_arrays_like_the_scalar_reference():
    checked = 0
    for times, period in _floor_frac_inputs():
        n, frac = floor_frac(times, period)
        expected = [reference_floor_frac(t, period) for t in times.tolist()]
        want_n, want_frac = np.array(expected, dtype=float).T
        assert np.array_equal(n, want_n) and np.array_equal(frac, want_frac)
        for i in range(0, len(times), 97):  # scalar calls give the same pair
            pair = floor_frac(times[i], period)
            assert all(isinstance(x, np.float64) for x in pair)
            assert pair == (want_n[i], want_frac[i])
        checked += len(times)
    assert checked > 50_000


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_the_reference_split_keeps_the_time_domain_of_floor_frac(bad):
    """At a period of 2 or more, -5e-324 / period rounds to -0.0."""
    for period in (1.3, 2.0, math.pi):
        message = f"got t = {bad} at period {period}"
        for split in (floor_frac, reference_floor_frac):
            with pytest.raises(DomainError, match=re.escape(message)):
                split(bad, period)
        assert floor_frac(-0.0, period) == reference_floor_frac(-0.0, period)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_floor_frac_rejects_any_non_finite_time_without_a_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times in (bad, [0.0, 1.0, bad], [[bad, 2.0]]):
            with pytest.raises(DomainError):
                floor_frac(times, 1.3)
        with pytest.raises(DomainError):  # t / period overflows to inf
            floor_frac([1.0, 1e300], 1e-10)
        assert floor_frac(sys.float_info.max, 1.0) == (sys.float_info.max, 0.0)


# ---------------------------------------------------------- one period map


def test_kick_free_floquet_operator_is_free_evolution():
    rng = np.random.default_rng(3)
    h0 = rand_herm(rng, 3)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=0.0, period=1.7)
    np.testing.assert_allclose(
        floquet_operator(m), expm_hermitian(h0, -1.7), atol=1e-13
    )


def test_magic_kick_floquet_operator():
    delta, period = 0.6, 1.3
    m = magic_model(delta=delta, period=period)
    phase = np.exp(0.5j * delta * period)
    expected = -1j * np.array([[0.0, phase], [1.0 / phase, 0.0]])
    np.testing.assert_allclose(floquet_operator(m), expected, atol=1e-14)


def test_model_validation():
    rng = np.random.default_rng(0)
    herm = rand_herm(rng, 2)
    with pytest.raises(HermiticityError):
        KickedModel(h0=np.array([[0.0, 1.0], [0.0, 0.0]]), kick=herm,
                    strength=1.0, period=1.0)
    with pytest.raises(DimensionError):
        KickedModel(h0=herm, kick=np.eye(3), strength=1.0, period=1.0)
    with pytest.raises(ValueError):
        KickedModel(h0=herm, kick=herm, strength=1.0, period=0.0)
    with pytest.raises(ValueError):
        KickedModel(h0=herm, kick=herm, strength=math.nan, period=1.0)


def test_a_period_whose_kick_frequency_overflows_is_refused():
    """2 pi / 1e-310 is above the double range, so Omega would be inf."""
    herm = rand_herm(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match=r"period 1e-310 is too small.*overflows"):
        KickedModel(h0=herm, kick=herm, strength=1.0, period=1e-310)


def test_an_overflowing_floquet_frame_is_a_numeric_failure():
    """delta T = 1e310 leaves the double range, so e^{-i H0 T} has no
    phase to take: a FloatingPointError, not scipy's ValueError on NaN."""
    m = KickedModel(h0=0.5e300 * PAULI_Z, kick=PAULI_X, strength=1.0, period=1e10)
    with pytest.raises(FloatingPointError, match=r"e\^\{i s H\} overflows"):
        decompose(m)


# ------------------------------------------------------------ quasienergies


def test_magic_quasienergies_sit_at_half_zone():
    for delta in (0.0, 0.6, -1.1):
        dec = decompose(magic_model(delta=delta, period=1.3))
        expected = math.pi / (2 * 1.3)
        np.testing.assert_allclose(
            dec.quasienergies, [expected, -expected], atol=1e-12
        )


def test_quasienergy_folding_into_principal_zone():
    period = 1.0
    omega = 2 * math.pi / period
    a = omega / 2 + 0.1
    m = KickedModel(
        h0=np.diag([a, -a]).astype(complex),
        kick=np.zeros((2, 2), dtype=complex),
        strength=0.0,
        period=period,
    )
    dec = decompose(m)
    edge = omega / 2 - 0.1
    np.testing.assert_allclose(dec.quasienergies, [edge, -edge], atol=1e-12)


def test_quasienergies_stay_in_zone_and_descend():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        m = random_model(rng, dim=dim)
        dec = decompose(m)
        assert np.all(dec.quasienergies <= dec.model.omega / 2 + 1e-12)
        assert np.all(dec.quasienergies > -dec.model.omega / 2 - 1e-12)
        assert np.all(np.diff(dec.quasienergies) <= 1e-12)


def test_basis_is_unitary_and_gauge_fixed():
    rng = np.random.default_rng(21)
    for dim in (2, 4):
        dec = decompose(random_model(rng, dim=dim))
        v = dec.basis
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        for k in range(dim):
            pivot = int(np.argmax(np.abs(v[:, k])))
            assert v[pivot, k].real > 0.0
            assert abs(v[pivot, k].imag) < 1e-12


def test_averaged_hamiltonian_regenerates_floquet_operator():
    rng = np.random.default_rng(5)
    m = random_model(rng, dim=4, period=1.1)
    dec = decompose(m)
    hbar = averaged_hamiltonian(dec)
    regenerated = expm_general(-1j * hbar, m.period)
    np.testing.assert_allclose(regenerated, floquet_operator(m), atol=1e-12)
    np.testing.assert_allclose(hbar, hbar.conj().T, atol=1e-13)


# ------------------------------------------------------------ Bohr clusters

def _cluster_family_model(family, rng, dim, period):
    """Models whose Bohr clusters differ in kind: kicked two-level systems,
    a degenerate qutrit, random models, near-degenerate diagonal H0 with
    weak kicks, levels a multiple of Omega apart (one cluster of up to
    dim^2 distinct differences) and a qutrit pair on the zone edge."""
    omega = 2.0 * math.pi / period
    if family == "kicked-tls":
        strength = math.pi / float(rng.choice([4, 2, 1]))
        return KickedModel(0.5 * rng.uniform(-3.0, 3.0) * PAULI_Z, PAULI_X,
                           strength, period)
    if family == "degenerate":
        return degenerate_model(rng)
    if family == "random":
        return random_model(rng, dim, period, rng.uniform(-3.0, 3.0))
    if family == "near-degenerate":
        levels = 0.5 * rng.integers(-2, 3, dim) + rng.uniform(-1e-12, 1e-12, dim)
        return KickedModel(np.diag(levels).astype(complex), rand_herm(rng, dim),
                           1e-3, period)
    if family == "folded":
        levels = omega * rng.integers(-3, 4, dim) + rng.uniform(-1e-11, 1e-11, dim)
        strength = float(rng.choice([0.0, 1e-13]))
        return KickedModel(np.diag(levels).astype(complex), rand_herm(rng, dim),
                           strength, period)
    strength = float(rng.choice([0.0, 1e-13, 1e-11, 1e-9]))
    return KickedModel(zone_edge_h0(rng), rand_herm(rng, 3), strength, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    family=st.sampled_from(["kicked-tls", "degenerate", "random",
                            "near-degenerate", "folded", "zone-edge"]),
    dim=st.integers(2, 8),
    period=st.sampled_from([1.0, math.pi, 2.0 * math.pi]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bohr_clusters_keep_the_bytes_of_the_loop(family, dim, period, seed):
    m = _cluster_family_model(family, np.random.default_rng(seed), dim, period)
    dec = decompose(m)
    frequencies, cluster_index = reference_cluster_frequencies(
        np.array(dec.quasienergies), m.omega
    )
    assert dec.frequencies.dtype == frequencies.dtype
    assert dec.frequencies.tobytes() == frequencies.tobytes()
    assert dec.cluster_index.dtype == cluster_index.dtype
    assert dec.cluster_index.tobytes() == cluster_index.tobytes()


def test_a_cluster_of_many_distinct_members_keeps_the_mean_of_np_mean():
    """Eight levels Omega apart up to 1e-11: all 64 differences are one
    cluster, which np.mean sums with numpy's pairwise (eight-way) blocks."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = _cluster_family_model("folded", rng, 8, math.pi)
        dec = decompose(m)
        labels = dec.cluster_index.ravel()
        largest = labels == np.bincount(labels).argmax()
        differences = (dec.quasienergies[:, None] - dec.quasienergies).ravel()
        assert len(np.unique(differences[largest])) >= 8
        frequencies, cluster_index = reference_cluster_frequencies(
            np.array(dec.quasienergies), m.omega
        )
        assert dec.frequencies.tobytes() == frequencies.tobytes()
        assert dec.cluster_index.tobytes() == cluster_index.tobytes()


@pytest.mark.parametrize("dim", [0, 1])
def test_clusters_of_an_empty_and_a_one_level_model_match_the_loop(dim):
    quasi = np.full(dim, 0.25)
    got = floquet._cluster_frequencies(quasi, 2.0 * math.pi)
    want = reference_cluster_frequencies(quasi, 2.0 * math.pi)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_clustering_makes_no_call_per_difference(monkeypatch):
    """Counted, not timed: no np.mean, and the same numpy calls at d = 8 as
    at d = 2."""
    counts = Counter()
    monkeypatch.setattr(floquet, "np", CountingNumpy(np, counts))
    calls = {}
    rng = np.random.default_rng(8)
    for dim in (2, 8):
        quasi = np.sort(rng.uniform(-1.0, 1.0, dim))[::-1]
        counts.clear()
        floquet._cluster_frequencies(quasi, 2.0 * math.pi)
        calls[dim] = dict(counts)
    assert "mean" not in calls[2] and "mean" not in calls[8]
    assert "add.reduceat" in calls[8]
    assert calls[2] == calls[8]


def test_the_floquet_frame_does_not_depend_on_numpys_simd_level():
    """Reruns decompose with numpy's AVX-512 kernels switched off (as on an
    AVX2 host) and compares bytes, quasienergies and frequencies included:
    np.angle's SIMD kernels round otherwise than libm's atan2, and moved
    them by an ulp on some models.  On a host without AVX-512 both runs
    take the same kernels."""
    script = textwrap.dedent("""
        import hashlib, math
        import numpy as np
        from floqlind.floquet import KickedModel, decompose, floquet_operator
        from floqlind.operators import PAULI_X, PAULI_Z
        rng = np.random.default_rng(3)
        def herm(d):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (a + a.conj().T) / 2
        for i in range(60):
            d = int(rng.integers(2, 9))
            m = KickedModel(herm(d), herm(d), rng.uniform(-3, 3), rng.uniform(0.2, 5))
            dec = decompose(m)
            for a in (floquet_operator(m), dec.basis, dec.cluster_index,
                      dec.quasienergies, dec.frequencies):
                print(hashlib.sha256(a.tobytes()).hexdigest())
        for i in range(30):
            strength = math.pi / float(rng.choice([4, 2, 1]))
            h0 = 0.5 * rng.uniform(-3, 3) * PAULI_Z
            m = KickedModel(h0, PAULI_X, strength, rng.uniform(0.2, 5))
            dec = decompose(m)
            for a in (floquet_operator(m), dec.basis, dec.cluster_index,
                      dec.quasienergies, dec.frequencies):
                print(hashlib.sha256(a.tobytes()).hexdigest())
    """)
    runs = run_at_both_simd_levels(script)
    assert len(runs[0]) == 5 * 90
    assert runs[0] == runs[1]


# --------------------------------------------------------------- propagator


def test_propagator_pins():
    m = magic_model(delta=0.6, period=1.3)
    dec = decompose(m)
    np.testing.assert_allclose(propagator(dec, 0.0), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        propagator(dec, m.period), floquet_operator(m), atol=1e-14
    )
    # The squared magic-kick map is -1 for any detuning, so 2.7 periods is
    # a free segment with a sign.
    expected = -expm_hermitian(m.h0, -0.7 * m.period)
    np.testing.assert_allclose(propagator(dec, 2.7 * m.period), expected, atol=1e-12)
    with pytest.raises(DomainError):
        propagator(dec, -1e-9)
    with pytest.raises(DomainError):
        propagator_left_limit(dec, -1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            propagator(dec, t)
        with pytest.raises(DomainError):
            propagator_left_limit(dec, t)


def test_propagator_is_unitary_at_random_times():
    rng = np.random.default_rng(17)
    m = random_model(rng, dim=3)
    dec = decompose(m)
    for t in rng.uniform(0.0, 20 * m.period, 100):
        u = propagator(dec, float(t))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)


def test_propagator_cocycle_property():
    rng = np.random.default_rng(19)
    m = random_model(rng, dim=2, period=0.8)
    dec = decompose(m)
    u_t = floquet_operator(m)
    t = 0.37 * m.period
    base = propagator(dec, t)
    power = np.eye(2, dtype=complex)
    for n in range(1, 51):
        power = u_t @ power
        np.testing.assert_allclose(
            propagator(dec, t + n * m.period), base @ power, atol=1e-10
        )


def test_propagator_is_right_continuous_at_kicks():
    rng = np.random.default_rng(23)
    m = random_model(rng, dim=3, period=1.2)
    dec = decompose(m)
    n = 4
    at_kick = propagator(dec, n * m.period)
    np.testing.assert_allclose(
        at_kick, np.linalg.matrix_power(floquet_operator(m), n), atol=1e-12
    )
    before = propagator_left_limit(dec, n * m.period)
    expected_before = expm_hermitian(m.h0, -m.period) @ np.linalg.matrix_power(
        floquet_operator(m), n - 1
    )
    np.testing.assert_allclose(before, expected_before, atol=1e-12)
    # Away from kicks the left limit is the propagator itself.
    t_mid = (n + 0.4) * m.period
    np.testing.assert_array_equal(
        propagator_left_limit(dec, t_mid), propagator(dec, t_mid)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    period=st.integers(1, 64).map(lambda k: k / 16),  # dyadic: n * T is exact
    n=st.integers(1, 10**9),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_propagator_stays_unitary_over_long_horizons(dim, seed, period, n, frac):
    m = random_model(np.random.default_rng(seed), dim=dim, period=period)
    dec = decompose(m)
    eye = np.eye(dim)
    u = propagator(dec, (n + frac) * period)
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-13
    left = propagator_left_limit(dec, n * period)
    assert np.max(np.abs(left.conj().T @ left - eye)) <= 1e-13
    expected = expm_hermitian(m.h0, -period) @ propagator(dec, (n - 1) * period)
    np.testing.assert_allclose(left, expected, rtol=0.0, atol=1e-13)


def test_propagator_matches_smoothed_kick_oracle():
    rng = np.random.default_rng(29)
    m = random_model(rng, dim=2, period=1.0, strength=0.9)
    dec = decompose(m)
    worst = 0.0
    for t in rng.uniform(0.0, 3 * m.period, 20):
        exact = propagator(dec, float(t))
        smoothed = oracle.regularized_propagator(m, float(t), 1e-5 * m.period)
        worst = max(worst, float(np.max(np.abs(exact - smoothed))))
    assert worst <= 1e-4


# ---------------------------------------------------------------- harmonics


def test_harmonic_decomposition_validation():
    m = magic_model()
    with pytest.raises(ValueError):
        harmonic_decomposition(m, [PAULI_Z], q_max=0)
    with pytest.raises(DimensionError):
        harmonic_decomposition(m, [np.eye(3)], q_max=2)
    with pytest.raises(HermiticityError):
        harmonic_decomposition(m, [np.array([[0.0, 1.0], [0.0, 0.0]])], q_max=2)
    # q_max = 2.5 built harmonics at -2.5 ... 2.5, which fooled the Parseval
    # check into a false certificate (eta 0.500 against 0.00768 at T = 1.3,
    # t2 = 2, tau_c = 3).
    for bad in (2.5, 4.0):
        with pytest.raises(TypeError):
            harmonic_decomposition(m, [PAULI_Z], q_max=bad)
    h = harmonic_decomposition(m, [PAULI_Z], q_max=np.int64(4))
    assert h.q_max == 4 and type(h.q_max) is int
    np.testing.assert_array_equal(
        harmonics_to_q_max(h),
        harmonics_to_q_max(harmonic_decomposition(m, [PAULI_Z], q_max=4)),
    )


def test_component_lookup_errors():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=3)
    omega = math.pi / h.model.period
    with pytest.raises(KeyError):
        component(h, 0, omega, 4)
    with pytest.raises(KeyError):
        frequency_label(h, 0.123 * omega)
    with pytest.raises(ValueError):
        component(h, 0, omega, 1, basis="spherical")


@pytest.mark.parametrize("q", [-5, -2, -1, 0, 1, 2, 4])
def test_magic_angle_dephasing_harmonic_dyads(q):
    """Jump-operator matrix elements of sigma-z between the known Floquet pair."""
    delta, period = 0.6, 1.3
    h = harmonic_decomposition(magic_model(delta, period), [PAULI_Z], q_max=6)
    phi1, phi2 = analytic_floquet_pair(delta, period)
    omega = math.pi / period
    up = component(h, 0, omega, q, basis="original")
    value = phi1.conj() @ up @ phi2
    assert value == pytest.approx(2j / (math.pi * (2 * q + 1)), abs=1e-12)


@pytest.mark.parametrize("q", [-2, -1, 0, 1, 2, 3])
def test_magic_angle_y_coupling_dyads(q):
    """sigma-y at zero detuning mixes the pair with real coefficients."""
    period = 1.3
    h = harmonic_decomposition(magic_model(0.0, period), [PAULI_Y], q_max=4)
    phi1, phi2 = analytic_floquet_pair(0.0, period)
    omega = math.pi / period
    up = component(h, 0, omega, q, basis="original")
    down = component(h, 0, -omega, q, basis="original")
    assert phi1.conj() @ up @ phi2 == pytest.approx(
        -(2 / math.pi) / (1 + 2 * q), abs=1e-12
    )
    assert phi2.conj() @ down @ phi1 == pytest.approx(
        -(2 / math.pi) / (1 - 2 * q), abs=1e-12
    )


def test_magic_angle_harmonic_magnitudes_are_gauge_free():
    h = harmonic_decomposition(magic_model(0.9, 0.7), [PAULI_Z], q_max=8)
    omega = math.pi / 0.7
    for q in range(-8, 9):
        mat = component(h, 0, omega, q, basis="floquet")
        magnitudes = np.sort(np.abs(mat).ravel())
        assert magnitudes[-1] == pytest.approx(
            2 / (math.pi * abs(2 * q + 1)), abs=1e-12
        )
        assert np.all(magnitudes[:-1] < 1e-14)


def test_kick_free_decomposition_is_static():
    """Without kicks every coupling is concentrated in the q = 0 layer."""
    rng = np.random.default_rng(31)
    h0 = rand_herm(rng, 3) * 0.4
    coupling = rand_herm(rng, 3)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=0.0, period=1.0)
    h = harmonic_decomposition(m, [coupling], q_max=3)
    v = h.decomposition.basis
    static = np.zeros((3, 3), dtype=complex)
    for omega in h.decomposition.frequencies:
        for q in range(-3, 4):
            mat = component(h, 0, float(omega), q)
            if q == 0:
                static += mat
            else:
                assert np.max(np.abs(mat)) < 1e-12
    np.testing.assert_allclose(static, v.conj().T @ coupling @ v, atol=1e-12)


def test_components_pair_up_under_adjoint():
    rng = np.random.default_rng(37)
    m = random_model(rng, dim=3)
    h = harmonic_decomposition(m, [rand_herm(rng, 3)], q_max=3)
    for omega in h.decomposition.frequencies:
        for q in range(-3, 4):
            left = component(h, 0, float(omega), q).conj().T
            right = component(h, 0, float(-omega), -q)
            np.testing.assert_allclose(left, right, atol=1e-13)


def test_components_are_ladder_operators_of_the_averaged_hamiltonian():
    rng = np.random.default_rng(41)
    m = random_model(rng, dim=3)
    h = harmonic_decomposition(m, [rand_herm(rng, 3)], q_max=2)
    hbar = averaged_hamiltonian(h.decomposition)
    for omega in h.decomposition.frequencies:
        for q in range(-2, 3):
            mat = component(h, 0, float(omega), q, basis="original")
            np.testing.assert_allclose(
                hbar @ mat - mat @ hbar, omega * mat, atol=1e-10
            )


def test_partial_sums_reconstruct_the_heisenberg_coupling():
    m = magic_model(delta=0.3, period=1.1)
    h_small = harmonic_decomposition(m, [PAULI_Z], q_max=50)
    h_large = harmonic_decomposition(m, [PAULI_Z], q_max=200)
    t = 0.37 * m.period
    u = propagator(decompose(m), t)
    exact = u.conj().T @ PAULI_Z @ u
    err_small = np.max(np.abs(reconstruct_heisenberg(h_small, t) - exact))
    err_large = np.max(np.abs(reconstruct_heisenberg(h_large, t) - exact))
    assert err_large <= 1e-3
    assert err_large < err_small


def test_parseval_weight_accumulates_toward_the_coupling_norm():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    total = float(np.sum(np.abs(PAULI_Z) ** 2))
    assert total == pytest.approx(2.0)
    held = parseval_weight(h, 0)
    assert held < total
    wider = harmonic_decomposition(h.model, [PAULI_Z], q_max=64)
    assert held < parseval_weight(wider, 0) < total + 1e-14


def test_harmonics_at_one_q_match_it_in_a_range():
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    np.testing.assert_array_equal(
        h.harmonics(np.array([2])), harmonics_to_q_max(h)[:, 6:7]
    )
    assert h.harmonics(np.arange(0)).shape == (1, 0, 2, 2)


@pytest.mark.parametrize("dim", [2, 3, 9])
def test_extended_matches_a_fresh_decomposition(dim):
    """The harmonics beyond q_max, as build_generator's doubling rounds
    compute them, carry the bits of a fresh decomposition's harmonics
    over |q| <= 2000."""
    rng = np.random.default_rng(43)
    m = random_model(rng, dim=dim)
    couplings = [rand_herm(rng, dim), rand_herm(rng, dim)]
    h = harmonic_decomposition(m, couplings, q_max=3)
    fresh = harmonic_decomposition(m, couplings, q_max=2000)
    full = harmonics_to_q_max(fresh)
    first = harmonics_to_q_max(h)
    np.testing.assert_array_equal(first, full[:, 1997:2004])
    q_max = 3
    while q_max < 2000:
        new = np.arange(q_max + 1, min(2 * q_max, 2000) + 1)
        wider = h.harmonics(np.concatenate([-new[::-1], new]))
        assert wider.shape == (2, 2 * len(new), dim, dim)
        # q sits at q + 2000 in the fresh layout
        outer = np.concatenate([2000 - new[::-1], 2000 + new])
        np.testing.assert_array_equal(wider, full[:, outer])
        q_max = int(new[-1])
    # The pole form is never handed out: writing into a returned array
    # leaves the bits of a later call as they were.
    first[:] = 1.0
    np.testing.assert_array_equal(harmonics_to_q_max(h), full[:, 1997:2004])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    dim=st.sampled_from([2, 3, 4, 5, 8]),
    seed=st.integers(0, 2**16),
    q_values=st.lists(st.integers(-9000, 9000), max_size=300),
    run=st.tuples(st.integers(-9000, 9000), st.integers(0, 2500)),
    cuts=st.lists(st.integers(0, 2800), max_size=6),
)
# Runs across several chunks of harmonics: 1024 per chunk at d = 2, whose
# harmonics are einsum's inner axis, and 4 at d = 8, whose elements are.
@example(dim=2, seed=1, q_values=[], run=(-1500, 2500), cuts=[700, 1100, 2049])
@example(dim=8, seed=2, q_values=[5, -3], run=(-4500, 30), cuts=[3, 9, 10, 21])
def test_harmonics_keep_their_bits_for_any_split(dim, seed, q_values, run, cuts):
    """However q_values is split into calls, whether the weights and poles
    are formed by the call or were cached before it, and whichever axis
    is einsum's inner one, every harmonic has the same bits."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, dim=dim)
    h = harmonic_decomposition(m, [rand_herm(rng, dim), rand_herm(rng, dim)], q_max=1)
    q = np.array(q_values + list(range(run[0], run[0] + run[1])), dtype=int)
    uncached = HarmonicDecomposition(h.decomposition, h.couplings, 1)
    whole = uncached.harmonics(q)
    bounds = [0, *sorted(c for c in cuts if c <= len(q)), len(q)]
    pieces = [h.harmonics(q[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces, axis=1), whole)
    other = 0 if dim * dim <= floquet._HARMONICS_INNER else dim * dim
    with mock.patch.object(floquet, "_HARMONICS_INNER", other):  # the other layout
        assert np.array_equal(h.harmonics(q), whole)


@pytest.mark.parametrize("dim", range(2, 9))
def test_harmonics_are_c_contiguous_complex_in_coupling_harmonic_element_order(dim):
    """build_generator sums |C|^2 in memory order, so the layout of the
    array, not only its values, is part of its bits."""
    rng = np.random.default_rng(dim)
    m = random_model(rng, dim=dim)
    h = harmonic_decomposition(m, [rand_herm(rng, dim) for _ in range(3)], q_max=1)
    values = h.harmonics(np.arange(-700, 701))
    assert values.dtype == complex
    assert values.shape == (3, 1401, dim, dim)
    assert values.flags.c_contiguous


def _exact_harmonics(h, q_values):
    """The harmonics as sums over the weights and poles of ``_poles``,
    sum_p w_p I_p with I_p = int_0^1 e^{2 pi i (z_p - q) x} dx taken in
    40-digit mpmath from its exponential form, and the scale
    sum_p |w_p I_p| of each, indexed [x, q, k]."""
    mpmath = pytest.importorskip("mpmath")
    weights, z = _poles(h.decomposition, list(h.couplings))
    exact = np.empty((len(weights), len(q_values), z.shape[1]), dtype=complex)
    scale = np.empty(exact.shape)
    with mpmath.workdps(40):

        def integral(gap):
            if gap == 0:
                return mpmath.mpf(1)
            return (mpmath.expjpi(2 * gap) - 1) / (2j * mpmath.pi * gap)

        for j, q in enumerate(q_values.tolist()):
            integrals = [
                [integral(mpmath.mpf(pole) - q) for pole in row] for row in z.tolist()
            ]
            for (x, k), _ in np.ndenumerate(exact[:, j]):
                terms = [
                    mpmath.mpc(complex(weights[x, p, k])) * integrals[p][k]
                    for p in range(len(z))
                ]
                exact[x, j, k] = complex(mpmath.fsum(terms))
                scale[x, j, k] = float(mpmath.fsum(abs(t) for t in terms))
    return exact, scale


def _integer_pole_model():
    """H0 levels 0 and 100 at T = 2 pi, where T / 2 pi is 1.0 exactly: z is
    exactly +-100 for the pairs of distinct levels, and the integral there
    is the Kronecker delta of q and z."""
    return KickedModel(
        h0=np.diag([0.0, 100.0]), kick=PAULI_X, strength=0.8, period=2.0 * math.pi
    )


@pytest.mark.parametrize(
    "model, coupling",
    [
        (magic_model(0.6, 1.3), PAULI_Z / math.sqrt(2.0)),
        (
            random_model(np.random.default_rng(5)),
            rand_herm(np.random.default_rng(6), 3),
        ),
        # The zone-edge TLS, h0 = pi sigma_z at T = 1 split by a kick of
        # 1e-13: every z within 3.2e-14 of an integer.
        (
            KickedModel(h0=math.pi * PAULI_Z, kick=PAULI_X, strength=1e-13, period=1.0),
            (PAULI_X + PAULI_Z) / 2.0,
        ),
        (_integer_pole_model(), PAULI_X + 0.3 * PAULI_Z),
    ],
    ids=["tls", "qutrit", "zone-edge", "integer-pole"],
)
def test_harmonics_match_mpmath_at_every_q(model, coupling):
    """Each coefficient lies within 1e-14 sum_p |w_p I_p| of the same sum in
    40-digit mpmath, at small and large |q| and where z is an integer.
    Taken through c = mu T - 2 pi q, the integrals carried c's rounding:
    the qutrit missed by 3.9 times that bound at q = +-100 and 370 times
    at +-8192, and coefficients that are exactly 0 at q != 0 (the TLS's,
    for one) came out nonzero."""
    h = harmonic_decomposition(model, [coupling], q_max=1)
    q_values = np.array([0, 1, -1, 100, -100, 4096, -4096, 8192, -8192])
    exact, scale = _exact_harmonics(h, q_values)
    got = h.harmonics(q_values).reshape(exact.shape)
    assert np.all(np.abs(got - exact) <= 1e-14 * scale)


def test_harmonics_take_no_transcendental_per_harmonic(monkeypatch):
    """Counted, not timed: the phase and the sine are taken once per pole,
    when a decomposition's harmonics are first called for, so the elements
    passed to exp, sin, cos and sinc do not grow with q_max, and later
    harmonics take none."""
    rng = np.random.default_rng(3)
    h = harmonic_decomposition(random_model(rng), [rand_herm(rng, 3)], q_max=1)
    h.harmonics(np.arange(0))  # forms the per-pole factors before the counting
    counted = []
    for name in ("exp", "sin", "cos", "sinc"):
        original = getattr(np, name)

        def counting(x, *args, _original=original, **kwargs):
            counted.append(np.size(x))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)

    def elements(build):
        counted.clear()
        build()
        return sum(counted)

    def fresh(q_max):
        return lambda: harmonics_to_q_max(
            HarmonicDecomposition(h.decomposition, h.couplings, q_max)
        )

    assert elements(fresh(10)) == elements(fresh(4000)) > 0
    assert elements(lambda: h.harmonics(np.arange(4000))) == 0


@pytest.mark.parametrize("dim,seed", [(2, 7), (3, 7)])
def test_closed_form_harmonics_match_quadrature(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, dim=dim, period=0.9, strength=0.8)
    coupling = rand_herm(rng, dim)
    h = harmonic_decomposition(m, [coupling], q_max=20)
    grid = oracle.quadrature_harmonics(m, coupling, q_max=20, n_samples=1 << 19)
    closed = np.stack(
        [
            sum(component(h, 0, float(w), q) for w in h.decomposition.frequencies)
            for q in range(-20, 21)
        ]
    )
    np.testing.assert_allclose(closed, grid, atol=1e-10)


def test_harmonics_match_quadrature_across_a_moved_zone_cut():
    """Two levels of H0 at +-Omega/2, split by a weak kick across the zone
    edge: the cut moves, one quasienergy is raised by Omega, and the
    closed-form harmonics, relabelled by one q, still match quadrature."""
    rng = np.random.default_rng(12)
    h0 = zone_edge_h0(rng)
    m = KickedModel(h0=h0, kick=rand_herm(rng, 3), strength=1e-11, period=1.0)
    coupling = rand_herm(rng, 3)
    h = harmonic_decomposition(m, [coupling], q_max=20)
    quasi = h.decomposition.quasienergies
    assert quasi[0] > m.omega / 2 and quasi[0] - quasi[-1] < m.omega
    grid = oracle.quadrature_harmonics(m, coupling, q_max=20, n_samples=1 << 19)
    np.testing.assert_allclose(harmonics_to_q_max(h)[0], grid, atol=1e-10)
