"""Generator assembly and closed-form rate tests."""

import math
import re
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    UnboundedDensity,
    conjugation_superop,
    degenerate_model,
    eta_from_generator,
    magic_model,
    rand_density,
    rand_herm,
    reference_generator,
    reference_rate_parallel_closed,
    reference_rate_perp_closed,
    run_at_both_simd_levels,
    vectorize,
    zone_edge_h0,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlind import floquet, lindblad
from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import evolve
from floqlind.errors import DimensionError, DomainError, TruncationError
from floqlind.floquet import KickedModel, floquet_operator, harmonic_decomposition
from floqlind.lindblad import (
    RateResult,
    TruncationInfo,
    build_generator,
    choi_matrix,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
    verify_cptp,
)
from floqlind.operators import PAULI_X, PAULI_Z, density_from_bloch, unvec, vec

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
        RateResult(eta=-0.1)


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
        assert stable == pytest.approx(direct, rel=1e-12, abs=0.0)


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


def test_perp_rate_keeps_its_digits_where_omega_is_far_below_the_cutoff():
    """Against coth(x)/sinh(x) at 50 digits, down to omega/cutoff 1e-15,
    where 1 - e^{-2x} formed directly loses digits (1.6e-3 at 1e-13) and
    rounds to 0 (from 1e-16); and on to omega 1e-150 and omega/cutoff
    1e-300, where omega^3 or (omega/cutoff)^2 leaves the normal double
    range (0.0 at omega 1e-120, ZeroDivisionError at ratio 1e-200),
    wherever the exact rate is itself a normal double; and at five points
    where omega/cutoff, coupling omega^3 or e^{-omega/2 cutoff} leaves
    that range."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    coupling = 0.8
    grids = [(omega, np.geomspace(1e-15, 1e2, 69)) for omega in (1e-3, 0.1, 7.3)]
    grids += [
        (omega, np.geomspace(1e-300, 1e2, 303))
        for omega in (1e-150, 1e-120, 1e-100, 1e-3, 0.1, 7.3)
    ]
    grids += [(1e104, np.geomspace(1.0, 1e2, 41))]  # omega^3 overflows
    points = [
        (omega, coupling, omega / ratio) for omega, ratios in grids for ratio in ratios
    ]
    # omega/cutoff underflows (was ZeroDivisionError); coupling omega^3
    # overflows (was inf), and at omega 2000 z = e^{-1000} underflows (NaN).
    points += [(1e-200, 1.0, 1e200), (1e-320, 1.0, 1e10)]
    points += [(700.0, 1e300, 1.0), (1000.0, 1e300, 1.0), (2000.0, 1e300, 1.0)]
    checked = 0
    for omega, coupling, cutoff in points:
        x = mpmath.mpf(omega) / (2 * mpmath.mpf(cutoff))
        exact = (
            coupling * mpmath.mpf(omega) ** 3 / (4 * mpmath.pi**2)
            * mpmath.coth(x) / mpmath.sinh(x)
        )
        if not sys.float_info.min <= exact <= sys.float_info.max:
            continue
        eta = rate_perp_closed(omega, coupling, cutoff).eta
        assert float(abs(eta - exact) / exact) <= 1e-13, (omega, coupling, cutoff)
        checked += 1
    assert checked >= 3 * 69 + 1000 + 5  # the filter keeps most of the grid


def test_a_nan_rate_is_a_numeric_failure_not_bad_input():
    with pytest.raises(FloatingPointError, match="NaN"):
        RateResult(eta=math.nan)
    # coupling * omega^3 overflows and z = e^{-omega/2} underflows, but
    # the rate is a normal double (60-digit mpmath).
    eta = rate_perp_closed(2000.0, 1e300, 1.0).eta
    assert eta == pytest.approx(2.057208654478268e-126, rel=1e-13, abs=0.0)


def test_a_perp_rate_above_the_double_range_is_inf():
    # Exact 3.4e308 (the frexp branch's ldexp raised OverflowError) and
    # about 1e499 (omega/cutoff underflows; ZeroDivisionError).
    assert rate_perp_closed(1e104, 1.0, 1e103).eta == math.inf
    assert rate_perp_closed(1e-200, 1e300, 1e200).eta == math.inf


def _assert_the_float_calls(rate, reference, points, *args):
    """rate(array) gives each float call's bits, or raises the exception,
    type and message, of the first point whose float call raises; each
    float call gives a float."""
    expected = []
    for point in points:
        try:
            expected.append(reference(point, *args))
        except (FloatingPointError, ValueError) as exc:
            for call in (np.array(points), point):
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    rate(call, *args)
            return
    eta = rate(np.array(points), *args).eta
    assert isinstance(eta, np.ndarray) and np.array_equal(eta, expected)
    for point, want in zip(points, expected):
        eta = rate(point, *args).eta
        assert type(eta) is float and eta == want


_LOG_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    ratios=st.lists(_LOG_SCALE, min_size=1, max_size=40),
    near_switch=st.lists(st.integers(-6, 6), max_size=8),
    t2=_LOG_SCALE,
    tau_c=_LOG_SCALE,
)
def test_parallel_rates_of_an_array_are_the_float_rates(ratios, near_switch, t2, tau_c):
    """period/tau_c from 1e-3 to 1e3, and periods a few ulps either side of
    x = period/(2 tau_c) = 0.05, where the series takes over."""
    periods = [tau_c * ratio for ratio in ratios]
    periods += [0.1 * tau_c * (1.0 + k * 2.0**-52) for k in near_switch]
    _assert_the_float_calls(
        rate_parallel_closed, reference_rate_parallel_closed, periods, t2, tau_c
    )


# Where the float call rescales: omega^3 leaves the normal range, and
# omega/cutoff is below the smallest normal double for a huge cutoff.
_PERP_EDGES = [2.9e-103, 3e-103, 3.1e-103, 4.9e102, 5e102, 5.1e102, 1e-320, 5e-324]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    log_omegas=st.lists(st.floats(-323.0, 307.0), min_size=1, max_size=40),
    edges=st.lists(st.sampled_from(_PERP_EDGES), max_size=4),
    coupling=st.sampled_from([1e-300, 1e-10, 0.8, 1.0, 1e10, 1e300])
    | st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    cutoff=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)
def test_perp_rates_of_an_array_are_the_float_rates(
    log_omegas, edges, coupling, cutoff
):
    omegas = [10.0**e for e in log_omegas] + edges
    _assert_the_float_calls(
        rate_perp_closed, reference_rate_perp_closed, omegas, coupling, cutoff
    )


@pytest.mark.parametrize(
    "omegas, coupling, cutoff",
    [
        ([1e-3, 1.0, 700.0, 1000.0, 2000.0, 1e104], 1e300, 1.0),
        ([1e-200, 1e-100, 1.0, 1e100], 1.0, 1e200),
        ([1e-300, 1e-103, 1e102, 1e104], 0.8, 1e103),
        (np.linspace(0.1, 20.0, 101).tolist(), 0.8, 1.3),
    ],
    ids=["huge-coupling", "huge-cutoff", "cube-edges", "sweep"],
)
def test_perp_rates_at_the_rescaled_edges_are_the_float_rates(omegas, coupling, cutoff):
    _assert_the_float_calls(
        rate_perp_closed, reference_rate_perp_closed, omegas, coupling, cutoff
    )


def test_an_array_of_rates_fails_as_its_first_failing_float_would():
    """NaN from arithmetic raises FloatingPointError and a negative rate
    ValueError, with the float call's message."""
    _assert_the_float_calls(
        rate_perp_closed, reference_rate_perp_closed, [1.0, math.inf, 2.0], 0.8, 1.0
    )
    _assert_the_float_calls(
        rate_parallel_closed, reference_rate_parallel_closed,
        [1.0, math.inf], 2.0, math.inf,
    )
    for rates, first in (
        ([0.1, -0.5, math.nan], -0.5),
        ([0.2, math.nan, -1.0], math.nan),
    ):
        with pytest.raises((FloatingPointError, ValueError)) as scalar:
            RateResult(eta=first)
        message = f"^{re.escape(str(scalar.value))}$"
        with pytest.raises(type(scalar.value), match=message):
            RateResult(eta=np.array(rates))
    assert np.array_equal(RateResult(eta=np.array([0.0, 1.5])).eta, [0.0, 1.5])


def test_batched_rates_do_not_depend_on_numpys_simd_level():
    """Hashes the array rates and the Gaussian characteristic function with
    numpy's AVX-512 kernels on and off.  numpy's exp, tanh and power change
    bits between the two on these grids; the math module does not.  The
    grids are np.linspace, whose bits do not depend on the SIMD level."""
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from floqlind.echo import GaussianDetuning
        from floqlind.lindblad import rate_parallel_closed, rate_perp_closed
        grid = np.linspace(0.01, 40.0, 200_001)
        for a in (
            rate_parallel_closed(grid, 2.0, 0.7).eta,
            rate_perp_closed(grid, 0.8, 1.3).eta,
            GaussianDetuning(2.3).characteristic_function(grid - 20.0),
        ):
            print(hashlib.sha256(a.tobytes()).hexdigest())
    """)
    runs = run_at_both_simd_levels(script)
    assert len(runs[0]) == 3
    assert runs[0] == runs[1]


# ------------------------------------------------------- generator assembly


def test_the_poles_are_formed_once_per_build(monkeypatch):
    """harmonic_decomposition forms the weights and poles, and every
    doubling round of build_generator reuses them."""
    calls = []

    def counting(*args, _original=floquet._poles):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(floquet, "_poles", counting)
    rng = np.random.default_rng(5)
    m = KickedModel(rand_herm(rng, 3), rand_herm(rng, 3), 0.7, 0.9)
    h = harmonic_decomposition(m, [rand_herm(rng, 3)], q_max=2)
    g = build_generator(h, (Lorentzian(t2=2.0, tau_c=3.0),), rel_tol=1e-10)
    assert g.truncation.q_max_used >= 16  # three or more doubling rounds
    assert len(calls) == 1


def test_generator_matches_closed_form_rate_dephasing(longitudinal):
    extracted = eta_from_generator(longitudinal.generator)
    assert extracted == pytest.approx(longitudinal.eta, rel=1e-8)


def test_generator_matches_closed_form_rate_transverse(transverse):
    extracted = eta_from_generator(transverse.generator)
    assert extracted == pytest.approx(transverse.eta, rel=1e-10)


def test_generator_floquet_basis_matrix_structure(longitudinal):
    g = longitudinal.generator
    in_basis = g.floquet_superop / longitudinal.eta
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
    in_basis = g.floquet_superop
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


def _zone_edge_model(strength):
    """h0 = pi sigma_z at T = 1, so U(T) = -1 without the kick: its two
    quasienergies sit at the zone edge, +-Omega/2, split by the kick."""
    return KickedModel(
        h0=math.pi * PAULI_Z, kick=PAULI_X, strength=strength, period=1.0
    )


ZONE_EDGE_COUPLING = (PAULI_X + PAULI_Z) / 2.0


def _equivalence_cases():
    tls = magic_model(0.6, 1.3), [PAULI_Z / math.sqrt(2.0)]
    lorentz = Lorentzian(t2=2.0, tau_c=3.0)
    qutrit, qutrit_couplings = _random_model(5, 3)
    qudit, qudit_couplings = _random_model(8, 8)
    _, degenerate_couplings = _random_model(6, 3)
    baths = (Lorentzian(t2=2.0, tau_c=0.3), PhononCutoff(0.05, 1.0, beta=2.0))
    return {
        "tls-1e-8": (*tls, [lorentz], 64, 1e-8),
        "tls-1e-12": (*tls, [lorentz], 64, 1e-12),
        "random-d3": (qutrit, qutrit_couplings, baths, 8, 1e-8),
        "random-d8": (qudit, qudit_couplings, baths, 16, 1e-6),
        "degenerate-d3": (
            degenerate_model(np.random.default_rng(6)), degenerate_couplings,
            baths, 8, 1e-8,
        ),
        "zone-edge": (
            _zone_edge_model(1e-11), [ZONE_EDGE_COUPLING],
            [Lorentzian(t2=2.0, tau_c=0.7)], 64, 1e-10,
        ),
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


def test_superop_is_formed_only_when_read(longitudinal):
    """The generator is kept as assembled, in the Floquet basis; evolve and
    semigroup never need it in the original basis."""
    model, density = longitudinal.model, longitudinal.density
    g = build_generator(longitudinal.harmonics, (density,), rel_tol=1e-8)
    evolve(model, g, np.eye(2) / 2.0, [0.5, 2.0], emit_left_limits=True)
    semigroup(g, 1.5)
    assert "superop" not in vars(g)
    change = g.decomposition.change
    np.testing.assert_array_equal(change, np.kron(g.basis.conj(), g.basis))
    np.testing.assert_array_equal(
        g.superop, change @ g.floquet_superop @ change.conj().T
    )
    assert "superop" in vars(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_floquet_superop_couples_only_elements_of_one_cluster(dim, seed):
    model, couplings = _random_model(seed, dim)
    h = harmonic_decomposition(model, couplings, q_max=4)
    g = build_generator(h, [Lorentzian(t2=2.0, tau_c=0.3)] * 2, rel_tol=1e-4)
    dec = g.decomposition
    label = dec.cluster_index.reshape(-1, order="F")
    assert g.floquet_superop.shape == (dim * dim, dim * dim)
    assert np.all(g.floquet_superop[label[:, None] != label[None, :]] == 0.0)
    # Element (l, k) carries the mirror frequency of (k, l).
    np.testing.assert_allclose(
        dec.frequencies[dec.cluster_index],
        -dec.frequencies[dec.cluster_index.T],
        rtol=0.0, atol=1e-9 * model.omega,
    )


def _zone_edge_run(strength):
    m = _zone_edge_model(strength)
    h = harmonic_decomposition(m, [ZONE_EDGE_COUPLING], q_max=64)
    g = build_generator(h, [Lorentzian(t2=2.0, tau_c=0.7)], rel_tol=1e-10)
    rho0 = density_from_bloch(np.array([0.6, 0.3, 0.5]))
    bloch = evolve(m, g, rho0, [3.0], frame="interaction").bloch()[0]
    return len(h.decomposition.frequencies), bloch


@pytest.mark.parametrize("strength", [1e-13, 1e-11, 1e-9])
def test_zone_edge_degeneracy_is_continuous_as_the_kick_vanishes(strength):
    """Quasienergies split by less than the cluster tolerance across
    +-Omega/2 share a cluster, as the exactly degenerate pair does (three
    clusters and Bloch x2 = 0.134 instead of 0.0645 when they did not)."""
    clusters, bloch = _zone_edge_run(strength)
    exact_clusters, exact_bloch = _zone_edge_run(0.0)
    assert clusters == exact_clusters == 1
    np.testing.assert_allclose(bloch, exact_bloch, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(exact_bloch, [0.129033, 0.064516, 0.464461], atol=1e-6)


def test_a_pair_forced_to_the_zone_edge_shares_a_cluster():
    """A random qutrit whose H0 puts two levels at +-Omega/2: as the kick
    vanishes the generator tends to the kick-free one (it jumped by 5%
    when the pair straddled the zone cut in two clusters)."""
    rng = np.random.default_rng(12)
    h0 = zone_edge_h0(rng)
    kick, coupling = rand_herm(rng, 3), rand_herm(rng, 3)

    def generator(strength):
        m = KickedModel(h0=h0, kick=kick / np.linalg.norm(kick, 2),
                        strength=strength, period=1.0)
        h = harmonic_decomposition(m, [coupling / np.linalg.norm(coupling)], 16)
        return m, build_generator(h, [Lorentzian(t2=2.0, tau_c=0.7)], 1e-10)

    _, exact = generator(0.0)
    scale = np.max(np.abs(exact.superop))
    for strength in (1e-13, 1e-11, 1e-9):
        m, g = generator(strength)
        dec = g.decomposition
        assert len(dec.frequencies) == len(exact.decomposition.frequencies) == 3
        quasi = dec.quasienergies
        assert np.all(np.diff(quasi) <= 0.0) and quasi[0] - quasi[-1] < m.omega
        v = dec.basis
        np.testing.assert_allclose(
            (v * np.exp(-1j * m.period * quasi)) @ v.conj().T, floquet_operator(m),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            g.superop, exact.superop, rtol=0.0, atol=1e-6 * scale
        )


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


def test_truncation_records_each_doubling_round(longitudinal):
    """q_max doubles from the decomposition's own each round, and a build
    that meets rel_tol at once records that one round."""
    harmonics, densities = longitudinal.harmonics, (longitudinal.density,)
    start = harmonics.q_max
    tight = build_generator(harmonics, densities, rel_tol=1e-12).truncation
    assert len(tight.rounds) > 2
    doubled = [start << i for i in range(len(tight.rounds))]
    assert [q for q, _ in tight.rounds] == doubled
    assert tight.rounds[-1] == (tight.q_max_used, tight.tail_bound)
    bounds = [bound for _, bound in tight.rounds]
    assert bounds == sorted(bounds, reverse=True)
    loose = build_generator(harmonics, densities, rel_tol=1e-2).truncation
    assert loose == TruncationInfo(start, tight.rounds[0][1], (tight.rounds[0],))


def test_generator_zero_coupling_yields_the_zero_map():
    h = harmonic_decomposition(
        magic_model(), [np.zeros((2, 2), dtype=complex)], q_max=4
    )
    g = build_generator(h, [Lorentzian(t2=1.0, tau_c=1.0)])
    assert np.max(np.abs(g.superop)) == 0.0
    assert g.truncation == TruncationInfo(
        q_max_used=4, tail_bound=0.0, rounds=((4, 0.0),)
    )


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
    with pytest.raises(TruncationError):
        build_generator(h, [UnboundedDensity()])


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, math.nan])
def test_generator_rejects_a_nonpositive_tolerance(rel_tol):
    # No finite q_max meets it; the loop would run to the harmonic cap.
    h = harmonic_decomposition(magic_model(), [PAULI_Z], q_max=4)
    with pytest.raises(DomainError, match="rel_tol"):
        build_generator(h, [Lorentzian(t2=2.0, tau_c=3.0)], rel_tol=rel_tol)


def test_generator_with_a_cold_phonon_bath():
    # beta * cutoff = 1e12: the negative branch peaks near 2.8e-12, where
    # a peak search bracketed in units of the cutoff cannot reach.
    model = magic_model(delta=0.4, period=1.1)
    h = harmonic_decomposition(model, [PAULI_X], q_max=8)
    g = build_generator(h, [PhononCutoff(0.05, 1.0, beta=1e12)])
    assert verify_cptp(semigroup(g, 3.0)).passed


def test_generator_harmonic_cap(monkeypatch, longitudinal):
    monkeypatch.setattr(lindblad, "_Q_CAP", 256)
    with pytest.raises(TruncationError):
        build_generator(
            longitudinal.harmonics, (longitudinal.density,), rel_tol=1e-30
        )


# sha256 of floquet_superop and the truncation of the benchmark's
# tls-certify generator (rel_tol 1e-12, q_max 64 to 4096) and of its
# qudit-d8 seed-1 generator.  The digests, q_max_used and tail_bound were
# taken with the harmonics contracted over the elements in chunks of 2^12
# integrals; any layout and chunk keep them.  The qudit digest depends on
# numpy's SIMD level: its phonon density takes numpy's exp on arrays.
GENERATOR_DIGESTS = {
    "tls-certify": (
        "784f1115c08e2eb447419f830a5a10f28fc4623ab4db340e823122f9f8237f0c",
        "TruncationInfo(q_max_used=4096, tail_bound=1.4020898175961561e-14, "
        "rounds=((64, 3.59213347544383e-09), (128, 4.542653214632317e-10), "
        "(256, 5.711545871936519e-11), (512, 7.160335425169636e-12), "
        "(1024, 8.963526102417435e-13), (2048, 1.1212612683937697e-13), "
        "(4096, 1.4020898175961561e-14)))",
    ),
    "qudit-d8": (
        {
            True: "2d4290ccbbf1ef7a5a9b05d00a7573a0bdb6f459f0ecca401f9c6944f5d97d79",
            False: "72feb65b54a2ab500934687c7802ed7358ca72fc3ca782aeb1fc9d70208b0132",
        },
        "TruncationInfo(q_max_used=32, tail_bound=2.7837189313324554e-07, "
        "rounds=((16, 2.112431490145295e-06), (32, 2.7837189313324554e-07)))",
    ),
}


def test_benchmark_generators_keep_their_bits_at_both_numpy_simd_levels():
    """The np.sum of build_generator adds |C|^2 in memory order, so a
    harmonics array with the right values in another layout moves
    tail_bound; this pins both."""
    script = textwrap.dedent("""
        import hashlib, math
        import numpy as np
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_features__
        from floqlind import (KickedModel, Lorentzian, PhononCutoff,
                              build_generator, harmonic_decomposition)
        from floqlind.operators import PAULI_X, PAULI_Z

        def show(name, h, densities, rel_tol):
            g = build_generator(h, densities, rel_tol)
            digest = hashlib.sha256(g.floquet_superop.tobytes()).hexdigest()
            print(name, digest, repr(g.truncation).replace(" ", ""))

        print(bool(__cpu_features__.get("AVX512_SKX")))
        tls = KickedModel(h0=0.3 * PAULI_Z, kick=PAULI_X, strength=math.pi / 2.0,
                          period=1.3)
        h = harmonic_decomposition(tls, [PAULI_Z / math.sqrt(2.0)], q_max=64)
        show("tls-certify", h, [Lorentzian(t2=2.0, tau_c=3.0)], 1e-12)
        rng = np.random.default_rng(1)

        def hermitian():
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            return 0.5 * (a + a.conj().T)

        h0, kick = hermitian(), hermitian()
        couplings = [s / np.linalg.norm(s) for s in (hermitian(), hermitian())]
        qudit = KickedModel(h0=h0 / np.linalg.norm(h0, 2),
                            kick=kick / np.linalg.norm(kick, 2),
                            strength=1.0, period=1.0)
        h = harmonic_decomposition(qudit, couplings, q_max=16)
        show("qudit-d8", h, [Lorentzian(t2=2.0, tau_c=0.3),
                             PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0)], 1e-6)
    """)
    for avx512, *lines in run_at_both_simd_levels(script):
        got = {lines[i]: tuple(lines[i + 1 : i + 3]) for i in range(0, len(lines), 3)}
        assert got.keys() == GENERATOR_DIGESTS.keys()
        for name, (digest, truncation) in GENERATOR_DIGESTS.items():
            if isinstance(digest, dict):
                digest = digest[avx512 == "True"]
            assert got[name] == (digest, truncation.replace(" ", ""))


# ----------------------------------------------------------------- semigroup


def test_semigroup_at_time_zero_is_the_identity(longitudinal):
    np.testing.assert_allclose(
        semigroup(longitudinal.generator, 0.0), np.eye(4), atol=1e-14
    )
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            semigroup(longitudinal.generator, bad)


def test_semigroup_of_rates_near_the_largest_double_raises_naming_t():
    """The generator is finite, its largest entry 9.0e307, but e^(tL) at
    t = 8.5e-269 has NaN entries: raised, never returned."""
    m = KickedModel(h0=np.zeros((2, 2)), kick=PAULI_X, strength=5e-324, period=1.0)
    harmonics = harmonic_decomposition(m, (PAULI_Z / math.sqrt(2.0),), q_max=64)
    g = build_generator(
        harmonics, (Lorentzian(t2=2.2250738585072014e-308, tau_c=1e19),),
        rel_tol=1e-8,
    )
    assert np.isfinite(g.superop).all()
    with pytest.raises(FloatingPointError, match=re.escape("e^(tL) at t = 8.5e-269 ")):
        semigroup(g, 8.5e-269)


def test_propagate_itself_raises_where_the_semigroup_is_not_finite():
    """The guard is in ``BohrBlocks.propagate``, so no caller can skip it:
    on the generator above it raises semigroup's message, naming the first
    bad time and the generator's largest entry."""
    m = KickedModel(h0=np.zeros((2, 2)), kick=PAULI_X, strength=5e-324, period=1.0)
    harmonics = harmonic_decomposition(m, (PAULI_Z / math.sqrt(2.0),), q_max=64)
    g = build_generator(
        harmonics, (Lorentzian(t2=2.2250738585072014e-308, tau_c=1e19),),
        rel_tol=1e-8,
    )
    largest = float(np.max(np.abs(g.floquet_superop)))
    message = (
        "e^(tL) at t = 8.5e-269 has an inf or NaN entry; the generator's "
        f"largest entry is {largest!r} in magnitude"
    )
    x0 = np.eye(4, dtype=complex)
    for times in ([8.5e-269], [0.0, 1e-290, 8.5e-269, 1e-268]):
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            g.blocks.propagate(x0, times)
    assert np.isfinite(g.blocks.propagate(x0, [0.0, 1e-290])).all()


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


def _equally_spaced_model(dim, seed):
    """Kick-free model whose H0 levels are equally spaced, below the zone
    width: the Bohr cluster of frequency j times the spacing holds the
    dim - |j| elements (k, k - j), so coherence blocks of every size from
    1 to dim - 1 occur."""
    rng = np.random.default_rng(seed)
    model = KickedModel(
        h0=np.diag(0.4 * np.arange(dim)).astype(complex),
        kick=np.diag(rng.standard_normal(dim)).astype(complex),
        strength=0.0,
        period=1.0,
    )
    coupling = rand_herm(rng, dim)
    return model, [coupling / np.linalg.norm(coupling)]


@pytest.mark.parametrize("dim", [3, 5])
def test_coherence_blocks_propagate_as_each_cluster_on_its_own(dim):
    """Bit for bit: the stacks of equal-size blocks give what expm of each
    cluster's block gives, and its conjugate on the mirror cluster."""
    model, couplings = _equally_spaced_model(dim, seed=dim)
    h = harmonic_decomposition(model, couplings, q_max=4)
    g = build_generator(h, [PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0)])
    label = g.decomposition.cluster_index.reshape(-1, order="F")
    flip = np.arange(dim * dim).reshape(dim, dim).reshape(-1, order="F")
    zero = label[0]
    sizes = []
    rng = np.random.default_rng(dim)
    x0 = np.concatenate(
        [np.eye(dim * dim), rng.standard_normal((dim * dim, 2))], axis=1
    ).astype(complex)
    times = np.array([0.0, 0.3, 1.0, 7.5, 40.0])
    got = g.blocks.propagate(x0, times)
    want = np.full_like(got, np.nan)
    for value in np.unique(label):
        indices = np.flatnonzero(label == value)
        mirror = flip[indices]
        if value == zero or value > label[mirror[0]]:
            continue
        block = g.floquet_superop[np.ix_(indices, indices)]
        step = scipy.linalg.expm(times[:, None, None] * block)
        want[:, indices] = step @ x0[indices]
        want[:, mirror] = step.conj() @ x0[mirror]
        sizes.append(len(indices))
    assert sorted(sizes) == list(range(1, dim))
    coherent = label != zero
    assert np.array_equal(got[:, coherent], want[:, coherent])


def test_propagate_calls_expm_once_per_block_size(monkeypatch):
    """The random d = 8 model of seed 1 (the qudit-d8 benchmark model) has
    28 pairs of 1x1 coherence blocks and a 7x7 zero block once its trace
    is split off: two calls, one per block size."""
    model, couplings = _random_model(1, 8)
    h = harmonic_decomposition(model, couplings, q_max=16)
    densities = [
        Lorentzian(t2=2.0, tau_c=0.3),
        PhononCutoff(coupling=0.05, cutoff=1.0, beta=2.0),
    ]
    g = build_generator(h, densities, rel_tol=1e-6)
    shapes = []
    expm = scipy.linalg.expm

    def counting(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    g.blocks.propagate(np.eye(64, dtype=complex), np.linspace(1.0, 50.0, 50))
    assert shapes == [(50, 28, 1, 1), (50, 7, 7)]


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
