"""Detuning-ensemble averaging and rate-inversion tests."""

import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from conftest import reference_characteristic_function, reference_echo_signal
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _extract_config

from floqlind import cli, echo
from floqlind.dynamics import TLSParams, closed_form_parallel
from floqlind.echo import (
    DiscreteDetuning,
    GaussianDetuning,
    UniformDetuning,
    averaged_phase,
    echo_signal,
    extract_tau_c,
    read_rate_measurements,
)
from floqlind.errors import (
    DomainError, InconsistentDataError, NumericFailure, OutOfRangeError,
)
from floqlind.floquet import floor_frac
from floqlind.lindblad import rate_parallel_closed
from floqlind.operators import bloch_from_density, density_from_bloch

THREE_KINDS = [
    GaussianDetuning(sigma=2.3),
    UniformDetuning(halfwidth=1.8),
    DiscreteDetuning(
        deltas=np.array([-1.1, 0.4, 2.0]),
        weights=np.array([0.3, 0.45, 0.25]),
    ),
]

ZERO_WIDTH = [
    GaussianDetuning(sigma=0.0),
    UniformDetuning(halfwidth=0.0),
    DiscreteDetuning(deltas=np.array([0.0]), weights=np.array([1.0])),
]


def _atoms(count):
    rng = np.random.default_rng(count)
    weights = rng.dirichlet(np.ones(count))
    weights[-1] = 1.0 - weights[:-1].sum()
    return DiscreteDetuning(deltas=rng.uniform(-3.0, 3.0, count), weights=weights)


def _params(eta=0.05, period=1.3, omega_ext=4.4):
    return TLSParams(
        omega0=omega_ext, omega_ext=omega_ext, period=period, eta=eta
    )


# ----------------------------------------------------------- distributions


def test_characteristic_functions_match_their_formulas():
    for u in (0.0, 0.3, -1.7, 4.0):
        assert GaussianDetuning(2.3).characteristic_function(u) == pytest.approx(
            math.exp(-0.5 * (2.3 * u) ** 2), rel=1e-14
        )
        expected = 1.0 if u == 0.0 else math.sin(1.8 * u) / (1.8 * u)
        assert UniformDetuning(1.8).characteristic_function(u) == pytest.approx(
            expected, rel=1e-13
        )
        atoms = DiscreteDetuning(
            deltas=np.array([-1.0, 2.0]), weights=np.array([0.25, 0.75])
        )
        assert atoms.characteristic_function(u) == pytest.approx(
            0.25 * np.exp(-1j * u) + 0.75 * np.exp(2j * u), rel=1e-14
        )


@pytest.mark.parametrize(
    "ensemble",
    [GaussianDetuning(2.3), UniformDetuning(1.8), *map(_atoms, (1, 4, 9, 1000))],
    ids=["gaussian", "uniform", "atoms-1", "atoms-4", "atoms-9", "atoms-1000"],
)
def test_characteristic_functions_take_arrays_like_scalars(ensemble):
    """One implementation for both: an array of offsets gives, bit for bit,
    the scalar values and the per-point reference formulas."""
    half = 0.5 * 1.3
    rng = np.random.default_rng(12)
    u = np.concatenate([[0.0, -half, half], rng.uniform(-half, half, 10_000)])
    values = ensemble.characteristic_function(u)
    assert values.dtype == complex and values.shape == u.shape
    points = u.tolist()
    scalars = [ensemble.characteristic_function(x) for x in points]
    assert all(isinstance(c, complex) and np.ndim(c) == 0 for c in scalars)
    assert np.array_equal(values, scalars)
    assert np.array_equal(
        values, [reference_characteristic_function(ensemble, x) for x in points]
    )
    grid = u[:12].reshape(3, 4)
    assert np.array_equal(
        ensemble.characteristic_function(grid), values[:12].reshape(3, 4)
    )
    assert ensemble.characteristic_function(u[:0]).shape == (0,)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    sigma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e) | st.just(0.0),
    u=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
)
def test_gaussian_characteristic_function_of_an_array_is_the_float_calls(sigma, u):
    e = GaussianDetuning(sigma)
    assert np.array_equal(
        e.characteristic_function(np.array(u)),
        [reference_characteristic_function(e, x) for x in u],
    )


def test_gaussian_characteristic_function_overflows_as_the_float_calls_do():
    """Where (sigma u)^2 is above the double range, so that the float power
    raises OverflowError, the value is 0.0, as at an inf sigma u.  2^512
    is the first |sigma u| whose square overflows."""
    e = GaussianDetuning(1e300)
    u = np.array([0.0, 1e-100, -1e-100, 1e10])
    assert np.array_equal(e.characteristic_function(u), [1.0, 0.0, 0.0, 0.0])
    edge = 2.0**512
    with pytest.raises(OverflowError):
        pow(edge, 2.0)
    assert math.isfinite(pow(math.nextafter(edge, 0.0), 2.0))
    e = GaussianDetuning(1.0)
    u = np.array([edge, -edge, math.nextafter(edge, 0.0), 1e300, 1e-300, 30.0])
    expected = [reference_characteristic_function(e, x) for x in u.tolist()]
    assert np.array_equal(e.characteristic_function(u), expected)


def test_every_ensemble_is_normalized_at_zero():
    for e in THREE_KINDS + ZERO_WIDTH:
        assert e.characteristic_function(0.0) == pytest.approx(1.0 + 0.0j)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        GaussianDetuning(sigma=-0.1)
    with pytest.raises(ValueError):
        UniformDetuning(halfwidth=-1.0)
    with pytest.raises(ValueError):
        DiscreteDetuning(deltas=np.array([1.0]), weights=np.array([0.5]))
    with pytest.raises(ValueError):
        DiscreteDetuning(deltas=np.array([1.0, 2.0]), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteDetuning(
            deltas=np.array([1.0, 2.0]), weights=np.array([-0.5, 1.5])
        )
    with pytest.raises(ValueError):
        GaussianDetuning(sigma=math.inf)
    with pytest.raises(ValueError):
        UniformDetuning(halfwidth=math.inf)
    with pytest.raises(ValueError):
        DiscreteDetuning(
            deltas=np.array([0.0, math.inf]), weights=np.array([0.5, 0.5])
        )
    with pytest.raises(ValueError):
        DiscreteDetuning(
            deltas=np.array([0.0, 1.0]), weights=np.array([math.nan, math.nan])
        )


# -------------------------------------------------------------- averaging


@pytest.mark.parametrize("ensemble", THREE_KINDS)
def test_phase_coherence_returns_at_half_period_marks(ensemble):
    p = _params()
    for n in range(21):
        t = (n + 0.5) * p.period
        cos_phi, sin_phi = averaged_phase(ensemble, p, t)
        assert cos_phi == pytest.approx(math.cos(p.omega_ext * t), abs=1e-12)
        assert sin_phi == pytest.approx(math.sin(p.omega_ext * t), abs=1e-12)


@pytest.mark.parametrize("ensemble", ZERO_WIDTH)
def test_zero_width_ensembles_never_dephase(ensemble):
    p = _params()
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 20.0, 30):
        cos_phi, sin_phi = averaged_phase(ensemble, p, float(t))
        assert cos_phi == pytest.approx(math.cos(p.omega_ext * t), abs=1e-12)
        assert sin_phi == pytest.approx(math.sin(p.omega_ext * t), abs=1e-12)


def test_initial_suppression_pin():
    """At t = 0 the sawtooth phase sits at -T/2, so a sigma T = 4 Gaussian
    ensemble starts at e^{-2} visibility and recovers to 1 at T/2."""
    period = 1.3
    p = _params(period=period)
    e = GaussianDetuning(sigma=4.0 / period)
    cos_phi, _ = averaged_phase(e, p, 0.0)
    assert cos_phi == pytest.approx(math.exp(-2.0), rel=1e-12)
    mid, _ = averaged_phase(e, p, 0.5 * period)
    assert mid == pytest.approx(math.cos(p.omega_ext * 0.5 * period), abs=1e-12)


def test_visibility_never_exceeds_one():
    p = _params()
    rng = np.random.default_rng(5)
    for e in THREE_KINDS:
        for t in rng.uniform(0.0, 15.0, 40):
            cos_phi, sin_phi = averaged_phase(e, p, float(t))
            assert cos_phi**2 + sin_phi**2 <= 1.0 + 1e-12


def test_averaged_phase_agrees_with_monte_carlo():
    p = _params()
    e = GaussianDetuning(sigma=2.3)
    deltas = np.random.default_rng(11).normal(0.0, 2.3, 1_000_000)
    for t in (0.3 * p.period, 1.7 * p.period):
        _, frac = math.floor(t / p.period), (t / p.period) % 1.0
        u = p.period * (frac - 0.5)
        phases = p.omega_ext * t + deltas * u
        for exact, sampled in zip(
            averaged_phase(e, p, t), (np.cos(phases), np.sin(phases))
        ):
            sem = float(np.std(sampled)) / math.sqrt(len(deltas))
            assert abs(exact - float(np.mean(sampled))) <= 3.0 * sem


# ------------------------------------------------------------ echo signal


@pytest.mark.parametrize("ensemble", THREE_KINDS)
def test_echo_magnitude_matches_the_single_spin_envelope(ensemble):
    p = _params(eta=0.04, period=0.9)
    x0 = (0.6, -0.3)
    times = np.array([(n + 0.5) * p.period for n in range(21)])
    signal = echo_signal(ensemble, p, x0, times)
    for t, row in zip(times, signal.transverse):
        n = math.floor(t / p.period)
        fast = math.exp(-2.0 * p.eta * t)
        slow = math.exp(-p.eta * t)
        expected = math.hypot(fast * x0[0], slow * x0[1])
        assert math.hypot(*row) == pytest.approx(expected, abs=1e-12)


def test_zero_width_signal_is_the_resonant_single_spin():
    p = _params(eta=0.07, period=1.1, omega_ext=3.3)
    x0 = (0.5, 0.4)
    rho0 = density_from_bloch(np.array([x0[0], x0[1], 0.0]))
    times = np.sort(np.random.default_rng(9).uniform(0.0, 12.0, 50))
    signal = echo_signal(GaussianDetuning(0.0), p, x0, times)
    for t, row in zip(times, signal.transverse):
        x = bloch_from_density(closed_form_parallel(p, rho0, float(t)))
        assert row[0] == pytest.approx(x[0], abs=1e-12)
        assert row[1] == pytest.approx(x[1], abs=1e-12)


def test_echo_signal_records_the_averaged_phases():
    p = _params()
    e = UniformDetuning(halfwidth=1.8)
    times = np.linspace(0.0, 6.0, 12)
    signal = echo_signal(e, p, (1.0, 0.0), times)
    for i, t in enumerate(times):
        cos_phi, sin_phi = averaged_phase(e, p, float(t))
        assert signal.avg_cos[i] == pytest.approx(cos_phi, abs=1e-14)
        assert signal.avg_sin[i] == pytest.approx(sin_phi, abs=1e-14)
    # Before t = 0 the decay factors grow and the signal leaves the Bloch ball.
    for bad in (math.inf, math.nan, -20.0):
        with pytest.raises(DomainError):
            averaged_phase(e, p, bad)
        with pytest.raises(DomainError):
            echo_signal(e, p, (1.0, 0.0), [0.0, bad])


@pytest.mark.parametrize("ensemble", THREE_KINDS)
def test_echo_signal_equals_the_per_point_reference(ensemble):
    rng = np.random.default_rng(8)
    for p in (_params(), _params(eta=0.3, period=0.7, omega_ext=-2.9)):
        marks = p.period * np.arange(0.0, 30.5, 0.5)  # t = 0, kicks and echoes
        times = np.unique(np.concatenate([marks, rng.uniform(0.0, 21.0, 400)]))
        x0 = rng.uniform(-0.7, 0.7, 2)
        signal = echo_signal(ensemble, p, x0, times)
        avg_cos, avg_sin, transverse = reference_echo_signal(ensemble, p, x0, times)
        assert np.array_equal(signal.times, times)
        assert np.array_equal(signal.avg_cos, avg_cos)
        assert np.array_equal(signal.avg_sin, avg_sin)
        assert np.array_equal(signal.transverse, transverse)


def test_echo_signal_rejects_a_negative_time_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(
        GaussianDetuning, "characteristic_function", lambda self, u: calls.append(u)
    )
    with pytest.raises(DomainError):
        echo_signal(GaussianDetuning(sigma=1.0), _params(), (1.0, 0.0),
                    [0.0, 0.5, 1.0, -1e-300])
    assert calls == []


@pytest.mark.parametrize("ensemble", THREE_KINDS)
def test_echo_signal_splits_all_times_with_one_floor_frac_call(ensemble, monkeypatch):
    """Counted, not timed: a per-time split would make 40 000 calls or more."""
    calls = []

    def counted(t, period):
        calls.append(np.shape(t))
        return floor_frac(t, period)

    monkeypatch.setattr(echo, "floor_frac", counted)
    times = np.linspace(0.0, 40.0 * 1.3, 40_000)
    signal = echo_signal(ensemble, _params(), (0.6, 0.8), times)
    assert len(signal.transverse) == 40_000
    assert calls == [(40_000,)]


@pytest.mark.parametrize("ensemble", THREE_KINDS)
def test_echo_signal_calls_the_characteristic_function_once(ensemble, monkeypatch):
    """Counted, not timed: a per-time evaluation would make 40 000 calls."""
    calls = []
    kind = type(ensemble)
    original = kind.characteristic_function

    def counted(self, u):
        calls.append(np.shape(u))
        return original(self, u)

    monkeypatch.setattr(kind, "characteristic_function", counted)
    times = np.linspace(0.0, 40.0 * 1.3, 40_000)
    signal = echo_signal(ensemble, _params(), (0.6, 0.8), times)
    assert len(signal.transverse) == 40_000
    assert calls == [(40_000,)]


@pytest.mark.parametrize(
    "x0",
    [(1.0,), (0.6, 0.8, 0.0, 0.1), (math.nan, 0.0), (0.6, -math.inf),
     (0.6, 0.8, math.nan), [[0.6, 0.8]], ()],
)
def test_echo_signal_rejects_a_bad_initial_vector(x0):
    with pytest.raises(ValueError, match="x0"):
        echo_signal(GaussianDetuning(sigma=1.0), _params(), x0, [0.0, 1.0])


@pytest.mark.parametrize("times", [[[0.1, 0.2]], [[0.1], [0.2]], np.zeros((2, 2, 1))])
def test_echo_signal_refuses_times_of_more_than_one_dimension(times):
    """Refused as ``evolve`` refuses them: a (1, 2) grid would give a (1, 4)
    ``transverse``, whose rows are no longer times."""
    with pytest.raises(ValueError, match="times"):
        echo_signal(GaussianDetuning(sigma=1.0), _params(), (0.6, 0.8), times)


@pytest.mark.parametrize("ensemble", THREE_KINDS, ids=["gaussian", "uniform", "discrete"])
@pytest.mark.parametrize(
    "params, times, bad",
    [
        (_params(omega_ext=5.0), [0.0, 1.3, 1e308], 1e308),  # omega_ext t
        (_params(omega_ext=1.7976931348623157e308), [0.0, 2.5], 2.5),
    ],
    ids=["carrier-at-1e308", "carrier-at-the-largest-omega"],
)
def test_echo_signal_whose_phase_overflows_is_a_numeric_failure(
    ensemble, params, times, bad
):
    """A carrier angle omega_ext t that leaves the double range raises
    NumericFailure naming the first such t, with no numpy warning."""
    with pytest.raises(NumericFailure, match=re.escape(f"at t = {bad!r} overflowed")):
        echo_signal(ensemble, params, (1.0, 0.0), times)


def test_echo_signal_keeps_one_time_and_a_1d_array_of_times():
    e, p = GaussianDetuning(sigma=1.0), _params()
    times = np.array([0.1, 0.2, 0.65])
    signal = echo_signal(e, p, (0.6, 0.8), times)
    assert signal.transverse.shape == (3, 2)
    for i, t in enumerate(times.tolist()):
        one = echo_signal(e, p, (0.6, 0.8), t)
        assert one.avg_cos.shape == () and one.transverse.shape == (1, 2)
        assert one.avg_cos.tobytes() == signal.avg_cos[i].tobytes()
        assert one.avg_sin.tobytes() == signal.avg_sin[i].tobytes()
        assert one.transverse.tobytes() == signal.transverse[i].tobytes()


def test_echo_signal_ignores_x3():
    times = np.linspace(0.0, 6.0, 25)
    e = GaussianDetuning(sigma=1.0)
    with_x3 = echo_signal(e, _params(), (0.6, 0.8, -0.7), times)
    without = echo_signal(e, _params(), (0.6, 0.8), times)
    assert np.array_equal(with_x3.transverse, without.transverse)


# ------------------------------------------------------------- extraction


def test_extraction_pinned_example():
    eta_fast = 1.0 - 5.0 * math.tanh(0.2)
    result = extract_tau_c(eta_slow=1.0, eta_fast=eta_fast, t_fast=0.2)
    assert result.t2 == pytest.approx(1.0, rel=1e-12)
    assert result.tau_c == pytest.approx(0.5, rel=1e-9)
    assert not result.degenerate


@pytest.mark.parametrize("t2", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("ratio", [0.3, 1.0, 5.0])
def test_extraction_round_trip(t2, ratio):
    t_fast = 0.37
    tau_c = ratio * t_fast
    eta_slow = 1.0 / t2
    eta_fast = rate_parallel_closed(t_fast, t2, tau_c).eta
    result = extract_tau_c(eta_slow, eta_fast, t_fast)
    assert result.t2 == pytest.approx(t2, rel=1e-9)
    assert result.tau_c == pytest.approx(tau_c, rel=1e-9)


def test_extraction_with_noisy_rates():
    rng = np.random.default_rng(13)
    t2, tau_c, t_fast = 1.0, 1.0, 1.0
    eta_slow = 1.0 / t2
    eta_fast = rate_parallel_closed(t_fast, t2, tau_c).eta
    errors = []
    for _ in range(100):
        noisy_slow = eta_slow * (1.0 + 0.01 * rng.standard_normal())
        noisy_fast = eta_fast * (1.0 + 0.01 * rng.standard_normal())
        result = extract_tau_c(noisy_slow, noisy_fast, t_fast)
        errors.append(abs(result.tau_c - tau_c) / tau_c)
    assert float(np.median(errors)) < 0.05


def test_extraction_flags_unresolvable_bath_times():
    result = extract_tau_c(1.0, 1.0 - 1e-15, t_fast=2.0)
    assert result.degenerate
    assert result.tau_c < 1e-9 * 2.0


@pytest.mark.parametrize(
    "eta_slow", [1e-300, 1.0, 1.0 + 2.0**-52, 2.0 - 2.0**-52, 3.7, 1e300]
)
def test_extraction_resolves_the_closest_rate_below_the_slow_one(eta_slow):
    """The largest eta_fast below eta_slow gives a ratio of at most
    1 - 2^-53, below the suppression factor of 1.0 at the low end of the
    search window, so the root is bracketed and lands on that end."""
    result = extract_tau_c(eta_slow, math.nextafter(eta_slow, 0.0), t_fast=2.0)
    assert result.degenerate
    assert result.residual == 0.0


def test_extraction_errors():
    with pytest.raises(ValueError):
        extract_tau_c(1.0, 0.5, t_fast=0.0)
    with pytest.raises(InconsistentDataError):
        extract_tau_c(1.0, 1.5, t_fast=1.0)
    with pytest.raises(InconsistentDataError):
        extract_tau_c(-1.0, 0.5, t_fast=1.0)
    with pytest.raises(InconsistentDataError):
        extract_tau_c(1.0, 0.0, t_fast=1.0)
    with pytest.raises(OutOfRangeError):
        extract_tau_c(1.0, 1e-9, t_fast=1.0)


def test_extraction_refuses_an_infinite_fast_period():
    with pytest.raises(ValueError, match="t_fast must be positive and finite"):
        extract_tau_c(1.0, 0.5, t_fast=math.inf)


@pytest.mark.parametrize(
    "ratio, t_fast, message",
    [
        (0.5, 5e-324, "tau_c = 0.0 at t_fast = 5e-324 is not a normal double"),
        (0.5, 1e-310, "at t_fast = 1e-310 is not a normal double"),
        (1e-6, 1e307, r"tau_c = inf at t_fast = 1e\+307 is not a normal double"),
    ],
)
def test_a_bath_time_outside_the_normal_doubles_is_out_of_range(
    ratio, t_fast, message
):
    with pytest.raises(OutOfRangeError, match=message):
        extract_tau_c(1.0, ratio, t_fast=t_fast)


@pytest.mark.parametrize("ratio, t_fast", [(1e-6, 1e-310), (0.5, 1.7e308)])
def test_a_fit_whose_search_leaves_the_double_range_scales_with_t_fast(
    ratio, t_fast
):
    """The search window tau = 1e-18 .. 1e3 t_fast underflows to 0 or
    overflows here, where t_fast / (2 tau) is taken as 0.5 e^{-log tau}.
    So the fit is the one at t_fast = 1, scaled: a 0 tau no longer
    divides by zero, and a tau whose double is inf no longer gives a
    factor of 0."""
    reference = extract_tau_c(1.0, ratio, t_fast=1.0)
    result = extract_tau_c(1.0, ratio, t_fast=t_fast)
    assert result.tau_c == pytest.approx(reference.tau_c * t_fast, rel=1e-14, abs=0.0)
    assert result.residual == pytest.approx(reference.residual, abs=1e-15)


# --------------------------------------------------------- the root search

PORT = echo._brentq
CUBE_TANH_TOLERANCES = [(1e-15, 1e-15), (2e-12, 4.0 * 2.0**-52), (1e-3, 1e-6)]


def _scipy_brentq(f, xa, xb, xtol, rtol):
    return scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)


def _counted(solver, f, *args, **kwargs):
    """(solver's root or the type of what it raised, f's call count)."""
    calls = []

    def counting(x):
        calls.append(x)
        return f(x)

    try:
        return solver(counting, *args, **kwargs), len(calls)
    except Exception as exc:
        return type(exc), len(calls)


def _extraction_through(solver, *rates):
    """extract_tau_c(*rates) as a list, or the type of what it raised, with
    its root search done by solver; and the misfit's calls in each search."""
    counts = []

    def search(f, *args, **kwargs):
        root, count = _counted(solver, f, *args, **kwargs)
        counts.append(count)
        if isinstance(root, type):
            raise root("raised in the root search")
        return root

    with mock.patch.object(echo, "_brentq", search):
        try:
            r = extract_tau_c(*rates)
        except Exception as exc:
            return type(exc), counts
    return [r.t2, r.tau_c, r.residual, r.degenerate], counts


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    eta_slow=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    t_fast=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.floats(-20.0, 0.0).map(lambda e: 10.0**e),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
def test_extraction_keeps_the_floats_of_scipy_brentq(eta_slow, t_fast, ratio):
    """Over the whole double range, the in-house search gives every float,
    and every exception type, that scipy.optimize.brentq gives on the same
    misfit, calling the misfit as many times."""
    rates = (eta_slow, eta_slow * ratio, t_fast)
    assert _extraction_through(PORT, *rates) == _extraction_through(_scipy_brentq, *rates)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(c=st.floats(-27.0, 27.0), tolerances=st.sampled_from(CUBE_TANH_TOLERANCES))
def test_brentq_is_scipy_brentq_on_generic_brackets(c, tolerances):
    """x^3 - c and tanh(x) - c/27, the root at an end of the bracket where
    |c| = 27: the same root and the same number of calls."""
    for f, xa, xb in (
        (lambda x: x**3 - c, -3.0, 3.0),
        (lambda x: math.tanh(x) - c / 27.0, -20.0, 20.0),
    ):
        assert (_counted(PORT, f, xa, xb, *tolerances)
                == _counted(_scipy_brentq, f, xa, xb, *tolerances))


def test_brentq_refuses_a_bracket_without_a_sign_change_as_scipy_does():
    for f in (lambda x: x * x + 1.0, lambda x: 1e-200):  # 1e-200^2 underflows
        assert _counted(PORT, f, -1.0, 1.0, 1e-12, 1e-12) == (ValueError, 2)
        assert _counted(_scipy_brentq, f, -1.0, 1.0, 1e-12, 1e-12) == (ValueError, 2)


def test_an_exhausted_root_search_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    """With the iteration cap lowered to 1 the search runs out: a
    FloatingPointError names the bracket, and the CLI exits 3 without
    writing a table."""
    monkeypatch.setattr(echo, "_BRENTQ_MAXITER", 1)
    with pytest.raises(FloatingPointError, match=r"no root found in \[-3\.0, 3\.0\]"):
        PORT(lambda x: x**3 - 2.0, -3.0, 3.0, 1e-15, 1e-15)
    rows = [(5000.0, 0.5), (0.37, rate_parallel_closed(0.37, 2.0, 1.0).eta)]
    assert cli.main([str(_extract_config(tmp_path, rows))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure: no root found in [")
    assert list(tmp_path.glob("*.tsv")) == []


def test_read_rate_measurements(tmp_path):
    path = tmp_path / "rates.txt"
    path.write_text(
        "# period  rate\n5.0 0.96\n\n0.2 0.0131\n", encoding="ascii"
    )
    rows = read_rate_measurements(path)
    assert rows == [(5.0, 0.96), (0.2, 0.0131)]

    for text in ("", "# period  rate\n\n"):  # no rows, and no numpy warning
        path.write_text(text, encoding="ascii")
        assert read_rate_measurements(path) == []

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_rate_measurements(bad)
