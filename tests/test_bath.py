"""Spectral-density family tests: values, detailed balance, tail bounds."""

import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import CountingNumpy, kms_ratio, run_at_both_simd_levels
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import PERP_CONFIG, write_config

from floqlind import (
    PAULI_X, PAULI_Z, KickedModel, bath, build_generator, cli,
    harmonic_decomposition,
)
from floqlind.bath import Lorentzian, PhononCutoff


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
    assert kms_ratio(density, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert kms_ratio(density, 0.0) == 1.0


def test_lorentzian_ratio_is_one():
    density = Lorentzian(t2=2.0, tau_c=1.3)
    for omega in (0.0, 0.7, -4.0, 25.0):
        assert kms_ratio(density, omega) == pytest.approx(1.0, rel=1e-14)


def test_detailed_balance_holds_across_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        beta = rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.05, 10.0) * rng.choice([-1.0, 1.0])
        density = PhononCutoff(coupling=0.7, cutoff=2.0, beta=beta)
        assert kms_ratio(density, omega) == pytest.approx(
            math.exp(-beta * omega), rel=1e-12
        )


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
        assert value == pytest.approx(quadratic, rel=1e-5, abs=0.0)
    assert density.evaluate(0.0) == 0.0


def test_phonon_rejects_infinite_temperature():
    with pytest.raises(ValueError):
        PhononCutoff(coupling=1.0, cutoff=1.0, beta=0.0)
    with pytest.raises(ValueError):
        PhononCutoff(coupling=-1.0, cutoff=1.0)
    # Non-finite coupling or cutoff; beta = inf stays the zero-temperature member.
    for coupling, cutoff in (
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)
    ):
        with pytest.raises(ValueError, match="finite"):
            PhononCutoff(coupling=coupling, cutoff=cutoff, beta=2.0)
    assert PhononCutoff(coupling=1.0, cutoff=1.0, beta=math.inf).evaluate(-1.0) == 0.0


@pytest.mark.parametrize(
    "t2, tau_c",
    [
        (0.0, 1.0), (-2.0, 1.0), (2.0, 0.0),
        (math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan),
    ],
)
def test_lorentzian_rejects_nonpositive_and_nonfinite_parameters(t2, tau_c):
    with pytest.raises(ValueError, match="finite and positive"):
        Lorentzian(t2=t2, tau_c=tau_c)


def test_lorentzian_tail_supremum_is_the_edge_value():
    density = Lorentzian(t2=2.0, tau_c=1.0)
    for w in (0.0, 0.5, 3.0, 100.0):
        assert density.tail_supremum(w) == pytest.approx(density.evaluate(w))
    assert density.tail_supremum(0.0) == pytest.approx(density.evaluate(0.0))


positive = st.floats(1e-300, 1e300)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    t2=positive,
    tau_c=positive,
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(allow_nan=False), max_size=20),
)
def test_lorentzian_scalar_and_array_values_are_byte_equal(t2, tau_c, seed, extra):
    """One arithmetic for a float and for an array, even where tau_c omega
    squared overflows (the density is then 0)."""
    rng = np.random.default_rng(seed)
    omegas = np.concatenate([
        rng.standard_normal(2000) * 10.0 ** rng.uniform(-3.0, 3.0, 2000) / tau_c,
        rng.standard_normal(200) * 10.0 ** rng.uniform(-300.0, 300.0, 200),
        extra,
    ])
    density = Lorentzian(t2=t2, tau_c=tau_c)
    with np.errstate(over="ignore", under="ignore"):
        batched = density.evaluate(omegas)
    scalar = np.array([density.evaluate(w) for w in omegas.tolist()])
    assert batched.tobytes() == scalar.tobytes()


def test_lorentzian_tail_bound_is_finite_at_a_huge_correlation_time():
    # tau_c omega squared is far above the largest double: the bound is 0.
    assert Lorentzian(t2=2.0, tau_c=1e300).tail_supremum(4.8) == 0.0
    assert Lorentzian(t2=2.0, tau_c=1e300).tail_supremum(0.0) == 1.0
    assert Lorentzian(t2=2.0, tau_c=1e100).tail_supremum(1e60) == 0.0


def test_a_lorentzian_whose_tau_c_omega_squared_overflows_is_silent():
    """0.0, with no overflow warning (an error in this suite) from a float,
    an np.float64, an array or the generator built on it."""
    density = Lorentzian(t2=2.0, tau_c=1e300)
    omegas = [1.0, -2.0, 1e10, 0.0]
    floats = [density.evaluate(w) for w in omegas]
    wrapped = [density.evaluate(np.float64(w)) for w in omegas]
    batched = density.evaluate(np.array(omegas))
    assert floats == [0.0, 0.0, 0.0, 1.0]
    assert np.array(wrapped).tobytes() == np.array(floats).tobytes()
    assert batched.tobytes() == np.array(floats).tobytes()
    model = KickedModel(h0=0.3 * PAULI_Z, kick=PAULI_X, strength=math.pi / 2,
                        period=1.3)
    h = harmonic_decomposition(model, (PAULI_Z,), q_max=16)
    assert np.all(np.isfinite(build_generator(h, (density,)).superop))


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


@pytest.mark.parametrize("cutoff", [0.1, 0.37, 1.0, 3.3, 10.0])
def test_cold_phonon_baths_have_a_tail_bound(cutoff):
    """No crash where the peak search used to lose its bracket (cold baths,
    and cutoffs whose 3/(3 cutoff) rounds above 1/cutoff), and the bound
    still covers both branches."""
    u = cutoff * np.geomspace(1e-21, 1e3, 20_001)
    for beta in np.geomspace(1e-6, 1e15, 22):
        density = PhononCutoff(coupling=0.7, cutoff=cutoff, beta=float(beta))
        bound = density.tail_supremum(0.0)
        assert math.isfinite(bound)
        largest = max(np.max(density.evaluate(u)), np.max(density.evaluate(-u)))
        assert largest <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "cutoff", [1e-300, 1e-200, 1e-100, 1e-50, 1e-13, 1e-7, 1e-3, 1.0, 1e3]
)
def test_phonon_tail_bound_holds_at_every_cutoff_scale(cutoff):
    """The closed-form bound's premise and result from beta cutoff 1e-6 to
    1e15 and zero temperature: gamma rises on (0, 2 cutoff] and falls on
    [3 cutoff, inf); from 3 cutoff the bound is gamma at the threshold, bit
    for bit, and below it the bound covers both branches at and beyond the
    threshold.  A root search in absolute units used to miss the peak
    below cutoff ~1e-10, and a subnormal bracket raised."""
    u = cutoff * np.geomspace(1e-21, 1e3, 20_001)
    rising, falling = u <= 2.0 * cutoff, u >= 3.0 * cutoff
    for scaled in [*np.geomspace(1e-6, 1e15, 15), math.inf]:
        beta = float(scaled) / cutoff  # beta * cutoff = scaled
        density = PhononCutoff(coupling=0.7, cutoff=cutoff, beta=beta)
        gamma = density.evaluate(u)
        assert np.all(np.diff(gamma[rising]) >= 0.0)
        assert np.all(np.diff(gamma[falling]) <= 0.0)
        for w in [3.0 * cutoff, *u[falling][::10].tolist()]:
            assert density.tail_supremum(w) == density.evaluate(w)
        # The largest value of either branch at or beyond each grid point.
        largest = np.maximum(gamma, density.evaluate(-u))
        beyond = np.maximum.accumulate(largest[::-1])[::-1]
        assert math.isfinite(density.tail_supremum(0.0))
        assert density.tail_supremum(0.0) >= beyond[0]
        for i in np.flatnonzero(~falling)[::50]:
            assert density.tail_supremum(float(u[i])) >= beyond[i]
    for beta in (1e13, 1.0):
        assert math.isfinite(PhononCutoff(1.0, cutoff, beta=beta).tail_supremum(0.0))


def test_phonon_density_takes_its_classical_limit_where_beta_omega_underflows():
    """Where beta omega rounds to 0 the density is A omega^2 e^{-omega/cutoff}
    / beta; scalar and array evaluation used to divide by zero there."""
    hot = PhononCutoff(1.0, 1.0, beta=1e-300)
    want = 1e240  # at omega = 1e-30, where e^{-omega/cutoff} rounds to 1
    for omega in (1e-30, -1e-30):
        assert hot.evaluate(omega) == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        hot.evaluate(np.array([1e-30, -1e-30])), want, rtol=1e-12
    )
    # The peak sits at u = 2 cutoff, where u^2 itself underflows; the tail
    # bound below 3 cutoff is gamma(2 cutoff) (3/2)^3.
    tiny = PhononCutoff(1.0, 1e-300, beta=1e-300)
    peak = 4e-300 * math.exp(-2.0)
    bound = tiny.tail_supremum(0.0)
    assert bound == pytest.approx(3.375 * peak, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(tiny.evaluate(np.array([2e-300])), peak, rtol=1e-12)


def test_phonon_density_takes_its_classical_limit_where_beta_omega_is_subnormal():
    """Where beta |omega| is subnormal, -expm1(-beta omega) keeps only a few
    bits, and the density used to be up to 1.2% high (at omega = 1e-23)."""
    coupling, cutoff, beta = 1.3, 0.7, 1e-300
    hot = PhononCutoff(coupling, cutoff, beta=beta)
    omegas = np.geomspace(1e-23, 1e-8, 61)
    assert np.all(beta * omegas < sys.float_info.min)
    want = np.array([coupling * w * w * math.exp(-w / cutoff) / beta for w in omegas])
    for sign in (1.0, -1.0):
        got = np.array([hot.evaluate(sign * w) for w in omegas.tolist()])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            hot.evaluate(sign * omegas), want, rtol=1e-15, atol=0.0
        )


def _series_phonon(density, omega):
    """The exact formula, which every beta |omega| >= the smallest normal
    double keeps, with detailed balance below zero."""
    a, c, beta = density.coupling, density.cutoff, density.beta
    u = abs(omega)
    gamma = a * u**3 * math.exp(-u / c) / -math.expm1(-beta * u)
    return math.exp(-beta * u) * gamma if omega < 0.0 else gamma


def _series_phonon_array(density, omega):
    a, c, beta = density.coupling, density.cutoff, density.beta
    u = np.abs(omega)
    gamma = a * u**3 * np.exp(-u / c) / -np.expm1(-beta * u)
    return np.where(omega < 0.0, np.exp(-beta * u) * gamma, gamma)


@pytest.mark.parametrize("beta", [1e-300, 1e-100, 1e-8, 0.37, 2.0, 50.0])
def test_phonon_density_keeps_its_bits_where_beta_omega_is_normal(beta):
    """Below omega = 3e-103 omega^3 is not a normal double, so the density
    is rescaled there (see the mpmath test) and only the rest is pinned."""
    density = PhononCutoff(coupling=0.8, cutoff=1.5, beta=beta)
    rng = np.random.default_rng(17)
    smallest = max(sys.float_info.min / beta, 3e-103)
    omegas = np.concatenate([
        [smallest, np.nextafter(smallest, math.inf)],
        np.exp(rng.uniform(math.log(smallest), math.log(40.0), 400)),
    ])
    omegas = omegas[(beta * omegas >= sys.float_info.min) & (omegas > 3e-103)]
    assert len(omegas) >= 401
    omegas = np.concatenate([omegas, -omegas])
    for w in omegas.tolist():
        assert density.evaluate(w) == _series_phonon(density, w)
    assert np.array_equal(
        density.evaluate(omegas), _series_phonon_array(density, omegas)
    )


@pytest.mark.parametrize(
    "density",
    [
        Lorentzian(t2=2.0, tau_c=3.0),
        PhononCutoff(coupling=0.8, cutoff=1.0),
        PhononCutoff(coupling=0.05, cutoff=1.5, beta=2.0),
    ],
    ids=["lorentzian", "phonon-cold", "phonon-warm"],
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
    # build_generator evaluates an empty array when no component is live.
    assert density.evaluate(np.array([])).shape == (0,)


# The array path's screen sets gamma to 0.0 where the log of A u^3
# e^{-u/cutoff} (1 + 1/(beta u)) is below ln 2^-1080.  The script finds
# where that log crosses the threshold, by bisection in libm arithmetic,
# and takes points within 16 ulps of each crossing and a grid where the
# log is within 30 of it, at both signs of omega.
SCREEN_SCRIPT = """
import math
import numpy as np
from floqlind.bath import PhononCutoff

LN_ZERO = -1080.0 * math.log(2.0)
CASES = [(0.05, 1.0, 2.0), (1.0, 1.0, math.inf), (1e-300, 1e-3, 1e-6),
         (1e300, 1e5, 1e3), (0.8, 1.0, 0.3), (1e-200, 10.0, 1e-200),
         (2.0, 3.0, 1e6), (1e-30, 1e-8, 50.0)]


def excess(density, u):
    beta_u = density.beta * u
    thermal = math.log1p(1.0 / beta_u) if beta_u > 1e-300 else math.inf
    return (math.log(density.coupling) + 3.0 * math.log(u) + thermal
            - u / density.cutoff - LN_ZERO)


def crossing(density, lo, hi):
    above = excess(density, lo) > 0.0
    for _ in range(300):
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if (excess(density, mid) > 0.0) == above else (lo, mid)
    return lo


for a, c, beta in CASES:
    density = PhononCutoff(a, c, beta)
    near, grid = [], []
    for lo, hi in ((1e-300, 3.0 * c), (3.0 * c, 1e300)):  # the peak is below 3 c
        if (excess(density, lo) > 0.0) != (excess(density, hi) > 0.0):
            edge = crossing(density, lo, hi)
            near += [edge * (1.0 + k * 2.0**-52) for k in range(-16, 17)]
            grid += [u for u in (edge * np.geomspace(1e-3, 1e3, 4001)).tolist()
                     if abs(excess(density, u)) < 30.0]
    omegas = np.array(near + grid + [-u for u in near + grid])
    batched = density.evaluate(omegas)
    scalar = np.array([density.evaluate(w) for w in omegas.tolist()])
    print(len(near) > 0, batched.tobytes() == scalar.tobytes(),
          bool(np.all(batched[: len(near)] == 0.0)))
"""


def test_the_phonon_screen_keeps_the_scalar_bits_at_its_threshold():
    """Where the screen may fall either way the density is 0.0, and the
    array agrees with the scalar case bit for bit, at both numpy SIMD
    levels."""
    for run in run_at_both_simd_levels(SCREEN_SCRIPT):
        assert run == ["True"] * 24


def test_the_rates_perp_gamma_column_makes_no_numpy_call_per_point(
    tmp_path, monkeypatch
):
    """Counted, not timed: the gamma column is one evaluate call per Python
    float, and a float takes the scalar case without asking numpy."""
    counts = Counter()
    monkeypatch.setattr(bath, "np", CountingNumpy(np, counts))

    def calls(points):
        counts.clear()
        body = PERP_CONFIG.replace("points = 9", f"points = {points}")
        cli.run(write_config(tmp_path, body))
        return dict(counts)

    assert calls(4000) == calls(10)


SCALAR_DENSITIES = pytest.mark.parametrize(
    "density",
    [
        PhononCutoff(coupling=0.8, cutoff=1.5),
        PhononCutoff(coupling=0.05, cutoff=1.5, beta=2.0),
    ],
    ids=["cold", "warm"],
)


@SCALAR_DENSITIES
def test_a_float_takes_the_scalar_case_without_numpy(density, monkeypatch):
    """A float and an np.float64 give the float call's bits, the formula's
    where it is evaluated as written, and make no numpy call."""
    plain = [0.7, -0.7, 3.0, -3.0, 40.0]
    omegas = [0.0, -0.0, 1e-300, 1e-200, *plain, 900.0, -900.0]
    counts = Counter()
    monkeypatch.setattr(bath, "np", CountingNumpy(np, counts))
    floats = [density.evaluate(w) for w in omegas]
    wrapped = [density.evaluate(np.float64(w)) for w in omegas]
    assert counts == {}
    assert all(type(value) is float for value in floats)
    assert np.array(wrapped).tobytes() == np.array(floats).tobytes()
    for w in plain:
        assert density.evaluate(w) == _series_phonon(density, w)


@pytest.mark.parametrize("beta", [math.inf, 0.01])
def test_an_np_float64_where_the_product_overflows_is_silent_as_a_float(beta):
    """A u^3 overflows at coupling 1e300: the scalar case must not do that
    arithmetic on numpy scalars, which warn (an error under -W error)."""
    density = PhononCutoff(coupling=1e300, cutoff=1.0, beta=beta)
    omegas = [900.0, -900.0, 1e5, 3e102]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = [density.evaluate(w) for w in omegas]
        wrapped = [density.evaluate(np.float64(w)) for w in omegas]
    assert all(type(value) is float for value in floats + wrapped)
    assert np.array(wrapped).tobytes() == np.array(floats).tobytes()
    if beta == math.inf:
        assert floats[0] == 9.947038878145827e-83


@SCALAR_DENSITIES
def test_an_int_or_a_0d_array_still_takes_the_scalar_case(density, monkeypatch):
    """Each asks np.ndim once, and both give the float call's bits."""
    counts = Counter()
    monkeypatch.setattr(bath, "np", CountingNumpy(np, counts))
    for w in (0, 1, 2, -3, 7):
        for scalar in (w, np.array(float(w))):
            counts.clear()
            value = density.evaluate(scalar)
            assert counts == {"ndim": 1}
            assert np.ndim(value) == 0
            expected = density.evaluate(float(w))
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()


@SCALAR_DENSITIES
def test_a_list_or_an_array_is_taken_elementwise(density):
    omegas = np.linspace(-6.0, 6.0, 12)
    values = density.evaluate(omegas)
    for x in (omegas.tolist(), omegas.reshape(3, 4), omegas[:0], []):
        got = density.evaluate(x)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
        assert np.array_equal(got.reshape(-1), values[: got.size])


def _exact_phonon(density, omega):
    """gamma(omega) in 40-digit mpmath, rounded to a double."""
    mpmath = pytest.importorskip("mpmath")
    if omega == 0.0 or omega < 0.0 and math.isinf(density.beta):
        return 0.0
    with mpmath.workdps(40):
        u = abs(mpmath.mpf(omega))
        gamma = density.coupling * u**3 * mpmath.exp(-u / density.cutoff)
        if not math.isinf(density.beta):
            gamma /= -mpmath.expm1(-density.beta * u)
            if omega < 0.0:
                gamma *= mpmath.exp(-density.beta * u)
        return float(gamma)


def _assert_phonon_matches_mpmath(density, omegas):
    """Scalar and array evaluation against mpmath.  The exponent u/cutoff
    (+ beta u below zero) is rounded before exponentiating, so the error
    may grow with it; a cell that is exactly 0 or inf must be that."""
    values = density.evaluate(np.array(omegas))
    for omega, value in zip(omegas, values.tolist()):
        exact = _exact_phonon(density, omega)
        x = abs(omega) / density.cutoff + (
            density.beta * abs(omega) if omega < 0.0 else 0.0
        )
        for got in (density.evaluate(omega), value):
            assert got == pytest.approx(exact, rel=1e-15 * (10.0 + x), abs=1e-323)


@pytest.mark.parametrize(
    "beta, omegas",
    [
        # A omega^3 overflows from omega ~ 565 and e^{-omega} underflows
        # from 745: the plain product is inf, then inf * 0 = NaN.
        (math.inf, [564.0, 566.0, 600.0, 700.0, 750.125, 1000.1, 2000.0, 1e5]),
        # Below zero the detailed-balance factor e^{-2 u} underflows too.
        (2.0, [-600.0, -400.0, -360.0, 300.0, 600.0, 1000.1]),
    ],
    ids=["cold", "warm"],
)
def test_phonon_density_at_a_huge_coupling_matches_mpmath(beta, omegas):
    density = PhononCutoff(coupling=1e300, cutoff=1.0, beta=beta)
    _assert_phonon_matches_mpmath(density, omegas)


@pytest.mark.parametrize(
    "coupling, cutoff, beta, omega",
    [(2.7e293, 1.5e19, 3.65e-127, 1.82e-235), (1e100, 1e-13, 1e-300, 1e-10)],
)
def test_phonon_classical_limit_keeps_a_normal_density(coupling, cutoff, beta, omega):
    """beta omega below the smallest normal double, where u / beta * u
    overflowed or underflowed before the coupling and e^{-u/cutoff} scaled
    it back: these gave 0.0 (exact 2.47e-50) and NaN (exact 5.08e-55)."""
    density = PhononCutoff(coupling=coupling, cutoff=cutoff, beta=beta)
    assert beta * omega < sys.float_info.min
    _assert_phonon_matches_mpmath(density, [omega, -omega])


@pytest.mark.parametrize("coupling", [1e-10, 1.0, 1e300])
@pytest.mark.parametrize("cutoff", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("beta_cutoff", [math.inf, 2.0, 0.1])
def test_phonon_density_matches_mpmath_across_its_range(coupling, cutoff, beta_cutoff):
    """From below omega = 3e-103, where omega^3 is not a normal double, and
    the peak region to far tails where e^{-omega/cutoff} or the
    detailed-balance factor leave the normal range, both signs."""
    density = PhononCutoff(coupling=coupling, cutoff=cutoff, beta=beta_cutoff / cutoff)
    scales = [0.37, 3.0, 40.0, 400.0, 707.0, 720.0, 745.5, 1200.0, 4000.0, 6000.0]
    tiny = [1e-300, 1e-200, 1.9547e-119, 1e-104, 2.9e-103]
    omegas = [
        sign * omega
        for omega in tiny + [scale * cutoff for scale in scales]
        for sign in (1.0, -1.0)
    ]
    _assert_phonon_matches_mpmath(density, omegas)
