"""Detuning-ensemble averaging and rate-inversion tests."""

import math

import numpy as np
import pytest

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
from floqlind.errors import DomainError, InconsistentDataError, OutOfRangeError
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


def test_sampling_is_deterministic_per_seed():
    e = GaussianDetuning(sigma=1.0, seed=7)
    np.testing.assert_array_equal(e.sample(5), e.sample(5))
    rng = np.random.default_rng(1)
    first = e.sample(5, rng=rng)
    second = e.sample(5, rng=rng)
    assert not np.array_equal(first, second)


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
    e = GaussianDetuning(sigma=2.3, seed=11)
    deltas = e.sample(1_000_000)
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
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            echo_signal(e, p, (1.0, 0.0), [0.0, bad])


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


def test_read_rate_measurements(tmp_path):
    path = tmp_path / "rates.txt"
    path.write_text(
        "# period  rate\n5.0 0.96\n\n0.2 0.0131\n", encoding="ascii"
    )
    rows = read_rate_measurements(path)
    assert rows == [(5.0, 0.96), (0.2, 0.0131)]

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_rate_measurements(bad)
