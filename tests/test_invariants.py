"""Metamorphic invariants of the generator: each relates two builds.

An invariant needs no oracle of its own, so it checks any dimension, bath
and parameter range at the cost of two builds.  Over d = 2 to 8, with one
coupling to a Lorentzian and one to a ``PhononCutoff`` bath, hot or cold,
and periods long enough to fold the spectrum:

* (d) unitary covariance: conjugating H0, the kick and the couplings by a
  unitary R conjugates the generator by R;
* (e) a trivial kick: strength 2 pi on a kick of integer spectrum is no
  kick;
* (f) scaling: a H0, period T/a and the bath's frequency axis scaled by a
  give a L, for a from 1e-150 to 1e150.

Where both builds stop at one q_max they truncate one series, so they
agree up to rounding; else each is within 2 tail_bound of the exact
generator.
"""

import math

import numpy as np
from conftest import conjugation_superop, rand_herm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floqlind import (
    KickedModel,
    Lorentzian,
    PhononCutoff,
    build_generator,
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


def _rounding(model, g):
    """32 ulps of the generator's largest entry per term of a d^2-term sum,
    grown by the phases ||H0|| T and |lambda| ||W||, whose absolute
    rounding every quasienergy and harmonic carries."""
    phases = (1.0 + np.linalg.norm(model.h0, 2) * model.period
              + abs(model.strength) * np.linalg.norm(model.kick, 2))
    return 32.0 * EPS * len(model.h0) ** 2 * np.abs(g.superop).max() * phases


def _assert_agree(lhs, rhs, rounding, truncations):
    """lhs and rhs are one generator, each built at (q_max_used, tail_bound)."""
    (q_lhs, tail_lhs), (q_rhs, tail_rhs) = truncations
    tolerance = rounding
    if q_lhs != q_rhs:
        tolerance += 2.0 * (tail_lhs + tail_rhs)
    assert np.max(np.abs(lhs - rhs)) <= tolerance


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
