"""Spectral-density family tests: values, detailed balance, tail bounds."""

import math

import numpy as np
import pytest

from floqlind.bath import Lorentzian, PhononCutoff, Tabulated
from floqlind.errors import ExtrapolationError, UndefinedRatioError


def test_lorentzian_zero_frequency_value():
    assert Lorentzian(t2=2.0, tau_c=1.0).evaluate(0.0) == pytest.approx(1.0)
    assert Lorentzian(t2=0.5, tau_c=7.0).evaluate(0.0) == pytest.approx(4.0)


def test_lorentzian_is_even_with_maximum_at_zero():
    density = Lorentzian(t2=1.7, tau_c=0.4)
    peak = density.evaluate(0.0)
    for omega in np.linspace(0.1, 30.0, 40):
        assert density.evaluate(omega) == pytest.approx(density.evaluate(-omega))
        assert density.evaluate(omega) < peak


def test_phonon_zero_temperature_vanishes_below_zero():
    density = PhononCutoff(coupling=1.0, cutoff=5.0)
    assert density.evaluate(-3.0) == 0.0
    assert density.evaluate(0.0) == 0.0


def test_phonon_zero_temperature_value_at_cutoff():
    # A w^3 e^{-w/cutoff} at A=1, cutoff=5, w=5: 125/e
    density = PhononCutoff(coupling=1.0, cutoff=5.0)
    assert density.evaluate(5.0) == pytest.approx(125.0 * math.exp(-1.0), rel=1e-15)
    assert density.evaluate(5.0) == pytest.approx(45.98493014643029, abs=1e-10)


def test_phonon_detailed_balance_example():
    density = PhononCutoff(coupling=1.0, cutoff=5.0, beta=1.0)
    assert density.kms_ratio(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert density.kms_ratio(0.0) == 1.0


def test_lorentzian_ratio_is_one():
    density = Lorentzian(t2=2.0, tau_c=1.3)
    for omega in (0.0, 0.7, -4.0, 25.0):
        assert density.kms_ratio(omega) == pytest.approx(1.0, rel=1e-14)


def test_detailed_balance_holds_across_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        beta = rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.05, 10.0) * rng.choice([-1.0, 1.0])
        density = PhononCutoff(coupling=0.7, cutoff=2.0, beta=beta)
        assert density.kms_ratio(omega) == pytest.approx(
            math.exp(-beta * omega), rel=1e-12
        )


def test_ratio_undefined_where_density_vanishes():
    density = PhononCutoff(coupling=1.0, cutoff=5.0)
    with pytest.raises(UndefinedRatioError):
        density.kms_ratio(-3.0)


def test_densities_are_nonnegative_over_a_wide_band():
    grid = np.linspace(-100.0, 100.0, 10_001)
    thermal = PhononCutoff(coupling=0.3, cutoff=2.0, beta=2.0)
    flat = Lorentzian(t2=0.8, tau_c=5.0)
    for omega in grid:
        assert thermal.evaluate(float(omega)) >= 0.0
        assert flat.evaluate(float(omega)) >= 0.0


def test_phonon_finite_temperature_is_continuous_at_zero():
    """The 0/0 at omega = 0 is removable; nearby values follow A w^2 / beta."""
    density = PhononCutoff(coupling=2.0, cutoff=3.0, beta=1.5)
    for omega in (1e-6, -1e-6):
        value = density.evaluate(omega)
        quadratic = 2.0 * omega**2 / 1.5
        assert value == pytest.approx(quadratic, rel=1e-5)
    assert density.evaluate(0.0) == 0.0


def test_phonon_rejects_infinite_temperature():
    with pytest.raises(ValueError):
        PhononCutoff(coupling=1.0, cutoff=1.0, beta=0.0)
    with pytest.raises(ValueError):
        PhononCutoff(coupling=-1.0, cutoff=1.0)


def test_lorentzian_tail_supremum_is_the_edge_value():
    density = Lorentzian(t2=2.0, tau_c=1.0)
    for w in (0.0, 0.5, 3.0, 100.0):
        assert density.tail_supremum(w) == pytest.approx(density.evaluate(w))
    assert density.supremum() == pytest.approx(density.evaluate(0.0))


@pytest.mark.parametrize(
    "density",
    [
        PhononCutoff(coupling=1.0, cutoff=2.0),
        PhononCutoff(coupling=0.5, cutoff=2.0, beta=3.0),
        PhononCutoff(coupling=0.5, cutoff=2.0, beta=0.2),
        Lorentzian(t2=1.0, tau_c=2.0),
    ],
)
def test_tail_supremum_bounds_the_tail(density):
    """Sampled values beyond the threshold never exceed the certificate."""
    for w in (0.0, 1.0, 4.0, 7.5, 20.0):
        bound = density.tail_supremum(w)
        samples = np.concatenate([np.linspace(w, w + 60.0, 400), [w]])
        for omega in samples:
            assert density.evaluate(float(omega)) <= bound * (1.0 + 1e-12)
            assert density.evaluate(float(-omega)) <= bound * (1.0 + 1e-12)


def test_tail_supremum_is_monotone_in_the_threshold():
    density = PhononCutoff(coupling=1.0, cutoff=2.0)
    thresholds = np.linspace(0.0, 40.0, 50)
    bounds = [density.tail_supremum(float(w)) for w in thresholds]
    assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(bounds, bounds[1:]))


def test_hot_phonon_bath_still_has_a_finite_tail_bound():
    # Detailed balance keeps the absorption branch bounded at any temperature.
    density = PhononCutoff(coupling=1.0, cutoff=5.0, beta=0.1)
    bound = density.tail_supremum(10.0)
    assert math.isfinite(bound)
    for omega in np.linspace(10.0, 400.0, 500):
        assert density.evaluate(float(omega)) <= bound * (1.0 + 1e-12)
        assert density.evaluate(float(-omega)) <= bound * (1.0 + 1e-12)


def test_tabulated_interpolates_and_refuses_to_extrapolate():
    grid = np.linspace(-5.0, 5.0, 21)
    values = 1.0 / (1.0 + grid**2)
    density = Tabulated(grid=grid, values=values)
    rng = np.random.default_rng(1)
    for omega in rng.uniform(-5.0, 5.0, 50):
        assert density.evaluate(float(omega)) == pytest.approx(
            float(np.interp(omega, grid, values)), rel=1e-14
        )
    with pytest.raises(ExtrapolationError):
        density.evaluate(5.1)
    with pytest.raises(ExtrapolationError):
        density.evaluate(-6.0)
    assert math.isinf(density.tail_supremum(100.0))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated(grid=np.array([0.0, 1.0]), values=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Tabulated(grid=np.array([0.0, 0.0, 1.0]), values=np.ones(3))
    with pytest.raises(ValueError):
        Tabulated(grid=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        Tabulated(grid=np.array([0.0, np.inf]), values=np.ones(2))


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "measured.txt"
    path.write_text(
        "# frequency  density\n-1.0 0.5\n0.0 1.0\n\n2.0 0.25\n", encoding="ascii"
    )
    density = Tabulated.from_file(path)
    assert density.evaluate(1.0) == pytest.approx(0.625)

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0 9.0\n1.0 2.0 9.0\n", encoding="ascii")
    with pytest.raises(ValueError):
        Tabulated.from_file(bad)


@pytest.mark.parametrize(
    "density",
    [
        Lorentzian(t2=2.0, tau_c=3.0),
        PhononCutoff(coupling=0.8, cutoff=1.0),
        PhononCutoff(coupling=0.05, cutoff=1.5, beta=2.0),
        Tabulated(grid=np.linspace(-30.0, 30.0, 61), values=np.linspace(0.0, 3.0, 61)),
    ],
    ids=["lorentzian", "phonon-cold", "phonon-warm", "tabulated"],
)
def test_array_evaluation_matches_scalar_evaluation(density):
    omegas = np.concatenate(
        [[0.0, -0.0, 1e-300, -1e-300, math.nan], np.linspace(-30.0, 30.0, 601)]
    ).reshape(6, -1)
    values = density.evaluate(omegas)
    assert isinstance(values, np.ndarray) and values.shape == omegas.shape
    expected = np.array([density.evaluate(float(w)) for w in omegas.flat])
    assert all(type(density.evaluate(float(w))) is float for w in omegas.flat[:8])
    # numpy's vectorised exp, expm1 and powers may differ from the math
    # module's in the last bit, a few rounding steps at most.
    np.testing.assert_array_max_ulp(values.reshape(-1), expected, maxulp=4)


def test_array_evaluation_keeps_the_tabulated_range():
    density = Tabulated(grid=np.linspace(-5.0, 5.0, 11), values=np.ones(11))
    assert density.evaluate(np.array([])).shape == (0,)
    with pytest.raises(ExtrapolationError, match="5.5"):
        density.evaluate(np.array([-5.0, 0.0, 5.5, 4.0]))
