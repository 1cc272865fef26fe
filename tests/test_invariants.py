"""Metamorphic invariants of the generator and of ``evolve``: each relates
two builds.

An invariant needs no oracle of its own, so it checks any dimension, bath
and parameter range at the cost of two builds.  Over d = 2 to 8, with one
coupling to a Lorentzian and one to a ``PhononCutoff`` bath, hot or cold,
and periods long enough to fold the spectrum:

* (d) unitary covariance: conjugating H0, the kick and the couplings by a
  unitary R conjugates the generator by R, and with rho0 the states
  (in the lab frame only for a diagonal R, which commutes with the
  carrier);
* (e) a trivial kick: strength 2 pi on a kick of integer spectrum is no
  kick, for the generator and the states in every frame;
* (f) scaling: a H0, period T/a and the bath's frequency axis scaled by a
  give a L, for a from 1e-150 to 1e150, and with the carrier a omega_ext
  the states at t/a are those at t.

Where both builds stop at one q_max they truncate one series, so they
agree up to rounding; else each is within 2 tail_bound of the exact
generator.  States inherit that bound times t (see
``_assert_states_agree``), plus the rounding of their dressing.
"""

import math

import numpy as np
from conftest import conjugation_superop, rand_density, rand_herm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floqlind import (
    KickedModel,
    Lorentzian,
    PhononCutoff,
    build_generator,
    evolve,
    harmonic_decomposition,
)

EPS = np.finfo(float).eps

RANDOM_MODELS = settings(derandomize=True, database=None, deadline=None, max_examples=8)
MODEL = dict(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    period=st.floats(0.2, 5.0),
    beta=st.one_of(st.just(math.inf), st.floats(0.3, 5.0)),
)


def _draw(dim, seed, period, beta):
    """A random kicked model, two couplings and their baths, and the rng
    that drew them."""
    rng = np.random.default_rng(seed)
    model = KickedModel(h0=rand_herm(rng, dim), kick=rand_herm(rng, dim),
                        strength=rng.uniform(0.0, 2.0 * math.pi), period=period)
    couplings = [rand_herm(rng, dim), rand_herm(rng, dim)]
    baths = (
        Lorentzian(t2=rng.uniform(0.5, 5.0), tau_c=rng.uniform(0.05, 5.0)),
        PhononCutoff(coupling=0.05, cutoff=rng.uniform(0.5, 2.0), beta=beta),
    )
    return model, couplings, baths, rng


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q


def _build(model, couplings, baths):
    harmonics = harmonic_decomposition(model, couplings, q_max=16)
    return build_generator(harmonics, baths, rel_tol=1e-10)


def _phases(model):
    """1 + ||H0|| T + |lambda| ||W||: the phases whose absolute rounding
    every quasienergy and harmonic carries."""
    return (1.0 + np.linalg.norm(model.h0, 2) * model.period
            + abs(model.strength) * np.linalg.norm(model.kick, 2))


def _rounding(model, g):
    """32 ulps of the generator's largest entry per term of a d^2-term sum,
    grown by the phases."""
    return 32.0 * EPS * len(model.h0) ** 2 * np.abs(g.superop).max() * _phases(model)


def _tolerance(rounding, truncations):
    """Bound on the largest entry of L1 - L2 for two builds of one generator,
    each at (q_max_used, tail_bound)."""
    (q_lhs, tail_lhs), (q_rhs, tail_rhs) = truncations
    if q_lhs != q_rhs:
        rounding += 2.0 * (tail_lhs + tail_rhs)
    return rounding


def _assert_agree(lhs, rhs, rounding, truncations):
    """lhs and rhs are one generator, each built at (q_max_used, tail_bound)."""
    assert np.max(np.abs(lhs - rhs)) <= _tolerance(rounding, truncations)


def _assert_states_agree(lhs, rhs, times, model, generator_tolerance, omega_ext):
    """lhs and rhs are the states at ``times`` of two dynamics whose
    generators differ by at most ``generator_tolerance`` per entry.

    The semigroups contract the trace norm, so by Duhamel
    ||(e^{tL1} - e^{tL2}) rho||_1 <= t ||L1 - L2||_{1->1}, and a d^2 x d^2
    superoperator M has ||M||_{1->1} <= sqrt(d) ||M||_F <= d^{5/2} max|M|.
    The dressing adds 32 ulps per term of a d^2-term sum, grown by the
    phases: the kicks' n = t/T times over, and the carrier's omega_ext t.
    """
    dim = len(model.h0)
    dressing = 32.0 * EPS * dim**2 * (
        (1.0 + times / model.period) * _phases(model) + abs(omega_ext) * times
    )
    tolerance = times * dim**2.5 * generator_tolerance + dressing
    assert np.all(np.max(np.abs(lhs - rhs), axis=(1, 2)) <= tolerance)


def _frames(dim):
    return ("interaction", "rotating") + (("lab",) if dim == 2 else ())


def _times(period):
    """Within and at kicks, over a few periods."""
    return period * np.array([0.0, 0.3, 1.0, 1.7, 2.0, 3.45])


def _truncation(g, scale=1.0):
    return g.truncation.q_max_used, scale * g.truncation.tail_bound


@RANDOM_MODELS
@given(**MODEL)
def test_conjugating_the_model_by_a_unitary_conjugates_the_generator(
    dim, seed, period, beta
):
    model, couplings, baths, rng = _draw(dim, seed, period, beta)
    r = _unitary(rng, dim)

    def rotated(x):
        return r @ x @ r.conj().T

    g = _build(model, couplings, baths)
    turned = KickedModel(h0=rotated(model.h0), kick=rotated(model.kick),
                         strength=model.strength, period=period)
    g_turned = _build(turned, [rotated(s) for s in couplings], baths)
    c = conjugation_superop(r)
    _assert_agree(g_turned.superop, c @ g.superop @ c.conj().T,
                  _rounding(turned, g_turned), (_truncation(g_turned), _truncation(g)))


@RANDOM_MODELS
@given(**MODEL, spectrum=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_a_2pi_kick_with_integer_spectrum_is_no_kick(dim, seed, period, beta, spectrum):
    model, couplings, baths, rng = _draw(dim, seed, period, beta)
    r = _unitary(rng, dim)
    kick = (r * np.array(spectrum[:dim], dtype=float)) @ r.conj().T
    kick = 0.5 * (kick + kick.conj().T)
    kicked = KickedModel(h0=model.h0, kick=kick, strength=2.0 * math.pi, period=period)
    still = KickedModel(h0=model.h0, kick=kick, strength=0.0, period=period)
    g_kicked, g_still = _build(kicked, couplings, baths), _build(still, couplings, baths)
    _assert_agree(g_kicked.superop, g_still.superop, _rounding(kicked, g_kicked),
                  (_truncation(g_kicked), _truncation(g_still)))


@RANDOM_MODELS
@given(**MODEL, exponent=st.floats(-150.0, 150.0))
@example(dim=8, seed=3, period=4.0, beta=2.0, exponent=150.0)
@example(dim=5, seed=5, period=0.7, beta=math.inf, exponent=-150.0)
def test_scaling_the_frequency_axis_by_a_scales_the_generator_by_a(
    dim, seed, period, beta, exponent
):
    """Lorentzian t2/a and tau_c/a; PhononCutoff A/a^2, a cutoff and beta/a."""
    a = 10.0 ** exponent
    model, couplings, (lorentz, phonon), _ = _draw(dim, seed, period, beta)
    g = _build(model, couplings, (lorentz, phonon))
    scaled = KickedModel(h0=a * model.h0, kick=model.kick, strength=model.strength,
                         period=period / a)
    baths = (
        Lorentzian(t2=lorentz.t2 / a, tau_c=lorentz.tau_c / a),
        PhononCutoff(coupling=phonon.coupling / a**2, cutoff=a * phonon.cutoff,
                     beta=phonon.beta / a),
    )
    g_scaled = _build(scaled, couplings, baths)
    _assert_agree(g_scaled.superop, a * g.superop, _rounding(scaled, g_scaled),
                  (_truncation(g_scaled), _truncation(g, scale=a)))


@RANDOM_MODELS
@given(**MODEL)
@example(dim=2, seed=11, period=1.3, beta=math.inf)
def test_conjugating_the_model_and_rho0_by_a_unitary_conjugates_the_states(
    dim, seed, period, beta
):
    model, couplings, baths, rng = _draw(dim, seed, period, beta)
    rho0, omega_ext = rand_density(rng, dim), rng.uniform(0.5, 5.0)
    g = _build(model, couplings, baths)
    times = _times(period)
    turns = [(_unitary(rng, dim), ("interaction", "rotating"))]
    if dim == 2:  # a diagonal R commutes with the carrier
        turns.append((np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))),
                      _frames(dim)))
    for r, frames in turns:

        def rotated(x):
            return r @ x @ r.conj().T

        turned = KickedModel(h0=rotated(model.h0), kick=rotated(model.kick),
                             strength=model.strength, period=period)
        g_turned = _build(turned, [rotated(s) for s in couplings], baths)
        tolerance = _tolerance(_rounding(turned, g_turned),
                               (_truncation(g_turned), _truncation(g)))
        for frame in frames:
            lhs = evolve(turned, g_turned, rotated(rho0), times, frame, omega_ext)
            rhs = evolve(model, g, rho0, times, frame, omega_ext)
            _assert_states_agree(lhs.states, rotated(rhs.states), times, turned,
                                 tolerance, omega_ext)


@RANDOM_MODELS
@given(**MODEL, spectrum=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
@example(dim=2, seed=11, period=1.3, beta=math.inf, spectrum=[2, -1] * 4)
def test_a_2pi_kick_with_integer_spectrum_leaves_the_states_unkicked(
    dim, seed, period, beta, spectrum
):
    model, couplings, baths, rng = _draw(dim, seed, period, beta)
    rho0, omega_ext = rand_density(rng, dim), rng.uniform(0.5, 5.0)
    r = _unitary(rng, dim)
    kick = (r * np.array(spectrum[:dim], dtype=float)) @ r.conj().T
    kick = 0.5 * (kick + kick.conj().T)
    kicked = KickedModel(h0=model.h0, kick=kick, strength=2.0 * math.pi, period=period)
    still = KickedModel(h0=model.h0, kick=kick, strength=0.0, period=period)
    g_kicked, g_still = _build(kicked, couplings, baths), _build(still, couplings, baths)
    tolerance = _tolerance(_rounding(kicked, g_kicked),
                           (_truncation(g_kicked), _truncation(g_still)))
    times = _times(period)
    for frame in _frames(dim):
        lhs = evolve(kicked, g_kicked, rho0, times, frame, omega_ext)
        rhs = evolve(still, g_still, rho0, times, frame, omega_ext)
        _assert_states_agree(lhs.states, rhs.states, times, kicked, tolerance,
                             omega_ext)


@RANDOM_MODELS
@given(**MODEL, exponent=st.floats(-150.0, 150.0))
@example(dim=2, seed=11, period=1.3, beta=math.inf, exponent=150.0)
@example(dim=2, seed=12, period=0.7, beta=2.0, exponent=-150.0)
def test_scaling_the_frequency_axis_by_a_takes_the_states_at_t_to_t_over_a(
    dim, seed, period, beta, exponent
):
    """As the generator test, with the carrier a omega_ext."""
    a = 10.0 ** exponent
    model, couplings, (lorentz, phonon), rng = _draw(dim, seed, period, beta)
    rho0, omega_ext = rand_density(rng, dim), rng.uniform(0.5, 5.0)
    g = _build(model, couplings, (lorentz, phonon))
    scaled = KickedModel(h0=a * model.h0, kick=model.kick, strength=model.strength,
                         period=period / a)
    baths = (
        Lorentzian(t2=lorentz.t2 / a, tau_c=lorentz.tau_c / a),
        PhononCutoff(coupling=phonon.coupling / a**2, cutoff=a * phonon.cutoff,
                     beta=phonon.beta / a),
    )
    g_scaled = _build(scaled, couplings, baths)
    # Entries of a L within this of g_scaled's; its states run t/a long.
    tolerance = _tolerance(_rounding(scaled, g_scaled),
                           (_truncation(g_scaled), _truncation(g, scale=a)))
    times = _times(period)
    for frame in _frames(dim):
        lhs = evolve(scaled, g_scaled, rho0, times / a, frame, a * omega_ext)
        rhs = evolve(model, g, rho0, times, frame, omega_ext)
        _assert_states_agree(lhs.states, rhs.states, times / a, scaled, tolerance,
                             a * omega_ext)
