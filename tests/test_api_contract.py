"""The library keeps its error contract over the whole double range.

Each numeric entry point of ``floqlind.__all__`` is called with floats
drawn as in ``test_cli_exit_contract``: log-uniform in magnitude from
1e-320 to 1e308 with either sign, mixed with 0, the infinities, NaN and
the ends of the subnormals.  A call must return finite numbers, or an inf
its docstring names, or raise one of the two roots, ``InputError`` or
``NumericFailure``; pytest's ``filterwarnings = error`` makes any numpy
warning a failure.  ``semigroup`` and ``evolve`` take the generator of
the longitudinal test model, built once, at drawn times.

Two kinds of entry point are left out.  The oracles of ``floqlind.oracle``
are brute-force references whose cost grows with their inputs (t / dt
steps, n_samples).  The spectral densities' ``evaluate`` and
``tail_supremum`` return NaN at some edge inputs, such as a Lorentzian
whose peak 2 / t2 overflows at a frequency where (tau_c omega)^2 does;
that needs a change of its own, and CHANGES.md records it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_exit_contract import FLOATS

from floqlind import (
    DiscreteDetuning,
    GaussianDetuning,
    InputError,
    KickedModel,
    NumericFailure,
    PAULI_X,
    TLSParams,
    UniformDetuning,
    bloch_from_density,
    closed_form_parallel,
    closed_form_perp,
    decompose,
    density_from_bloch,
    echo_signal,
    evolve,
    extract_tau_c,
    floor_frac,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
)

RHO0 = density_from_bloch([0.6, 0.0, 0.8])
# (class, arguments): built in the call, whose validation is under test.
ENSEMBLES = st.one_of(
    st.tuples(st.just(GaussianDetuning), st.tuples(FLOATS)),
    st.tuples(st.just(UniformDetuning), st.tuples(FLOATS)),
    st.tuples(st.just(DiscreteDetuning),
              st.tuples(FLOATS, FLOATS).map(lambda dw: ([0.0, dw[0]], [1.0 - dw[1], dw[1]]))),
)


def _evolve(longitudinal, frame, t, omega_ext):
    m, g = longitudinal.model, longitudinal.generator
    return evolve(m, g, RHO0, [t], frame=frame, omega_ext=omega_ext,
                  emit_left_limits=True)


# name -> (arguments, call, may the result hold +inf)
ENTRY_POINTS = {
    "closed_form_parallel": (
        st.tuples(*[FLOATS] * 5),
        lambda _, w0, we, period, eta, t: closed_form_parallel(
            TLSParams(w0, we, period, eta), RHO0, t),
        False,
    ),
    "closed_form_perp": (
        st.tuples(*[FLOATS] * 4),
        lambda _, w, period, eta, t: closed_form_perp(
            TLSParams(w, w, period, eta), RHO0, t),
        False,
    ),
    "echo_signal": (
        st.tuples(ENSEMBLES, *[FLOATS] * 8),
        lambda _, e, w0, we, period, eta, x1, x2, t1, t2: echo_signal(
            e[0](*e[1]), TLSParams(w0, we, period, eta), (x1, x2), [t1, t2]),
        False,
    ),
    "rate_parallel_closed": (
        st.tuples(*[FLOATS] * 3),
        lambda _, period, t2, tau_c: rate_parallel_closed(period, t2, tau_c),
        True,
    ),
    "rate_perp_closed": (
        st.tuples(*[FLOATS] * 3),
        lambda _, omega, coupling, cutoff: rate_perp_closed(omega, coupling, cutoff),
        True,
    ),
    "extract_tau_c": (
        st.tuples(*[FLOATS] * 3),
        lambda _, slow, fast, t_fast: extract_tau_c(slow, fast, t_fast),
        False,
    ),
    "floor_frac": (
        st.tuples(*[FLOATS] * 2),
        lambda _, t, period: floor_frac(t, period),
        False,
    ),
    "density_from_bloch": (
        st.tuples(*[FLOATS] * 3),
        lambda _, x1, x2, x3: bloch_from_density(density_from_bloch([x1, x2, x3])),
        False,
    ),
    "decompose": (
        st.tuples(*[FLOATS] * 3),
        lambda _, delta, strength, period: decompose(KickedModel(
            h0=np.diag([delta, -delta]), kick=PAULI_X, strength=strength,
            period=period)),
        False,
    ),
    "semigroup": (
        st.tuples(FLOATS),
        lambda fixture, t: semigroup(fixture.generator, t),
        False,
    ),
    "evolve": (
        st.tuples(st.sampled_from(["interaction", "rotating", "lab"]), FLOATS, FLOATS),
        _evolve,
        False,
    ),
}
EXAMPLES = 150


def _numbers(result):
    """Every float of a result, as one flat complex array."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        parts = [_numbers(part) for part in result if part is not None]
        return np.concatenate(parts) if parts else np.zeros(0, complex)
    if isinstance(result, str):
        return np.zeros(0, complex)
    return np.ravel(np.asarray(result, dtype=complex))


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_keeps_the_error_contract(name, longitudinal):
    arguments, call, inf_allowed = ENTRY_POINTS[name]

    @settings(derandomize=True, database=None, deadline=None, max_examples=EXAMPLES)
    @given(arguments)
    def check(args):
        try:
            numbers = _numbers(call(longitudinal, *args))
        except (InputError, NumericFailure):
            return
        parts = np.concatenate([numbers.real, numbers.imag])
        finite = np.isfinite(parts)
        if inf_allowed:
            finite |= parts == math.inf
        assert finite.all(), (name, args, numbers)

    check()
