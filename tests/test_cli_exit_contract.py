"""The command line keeps its exit contract over the whole double range.

Every scenario's floats are drawn log-uniform in magnitude from 1e-320 to
1e308 with either sign, mixed with 0, the infinities, NaN and the ends of
the subnormals.  ``cli.main`` must return 0, 2 or 3 and raise nothing;
pytest's ``filterwarnings = error`` makes any warning a failure.  The
exception behind exit 3 must be a ``NumericFailure``, and the one behind
exit 2 an ``InputError``, a ``configparser.Error`` or an ``OSError``.  It
must be raised in floqlind's own code, or be a ``configparser.Error`` or
``OSError``: never a numpy or scipy error passed through, never an errno
tuple such as ``(34, 'Numerical result out of range')``, and never the
"matrix has non-finite entries" that ``operators`` reserves for a user's
matrix, since no config supplies one.  The ranges are not narrowed for
speed; configs that double the truncation up to its ``q_max`` ceiling,
the slowest examples, stay in the space, and the example counts are
sized for the suite's run time instead.
"""

import configparser
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlind import cli
from floqlind.errors import InputError, NumericFailure

PACKAGE = Path(cli.__file__).resolve().parent
ERRNO_TUPLE = re.compile(r"^\(\d+, '")
NON_FINITE_MATRIX = "matrix has non-finite entries"  # a user's matrix only

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]


@st.composite
def _double(draw):
    """One in four a special value; else log-uniform, one in four negative."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.sampled_from(SPECIAL))
    magnitude = 10.0 ** draw(st.floats(min_value=-320.0, max_value=308.0))
    return -magnitude if draw(st.integers(min_value=0, max_value=3)) == 0 else magnitude


FLOATS = _double()
OPTIONAL = st.one_of(st.none(), FLOATS)


def _sweep(parameter):
    return st.fixed_dictionaries({
        "parameter": st.just(parameter),
        "start": FLOATS,
        "stop": FLOATS,
        "points": st.integers(min_value=-1, max_value=40),
        "spacing": st.sampled_from(["linear", "log"]),
    })


LONGITUDINAL = {"t2": FLOATS, "tau_c": FLOATS, "period": FLOATS,
                "delta": OPTIONAL, "strength": OPTIONAL}
ENSEMBLES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian"), "sigma": FLOATS}),
    st.fixed_dictionaries({"kind": st.just("uniform"), "halfwidth": FLOATS}),
    st.fixed_dictionaries({
        "kind": st.just("discrete"),
        "deltas": st.lists(FLOATS, min_size=1, max_size=3),
        "weights": st.lists(FLOATS, min_size=1, max_size=3),
    }),
)
RUN = st.fixed_dictionaries({"rel_tol": OPTIONAL})

SCENARIOS = {
    "rates-parallel": st.fixed_dictionaries({
        "model": st.fixed_dictionaries({"t2": FLOATS, "tau_c": FLOATS}),
        "sweep": _sweep("omega"),
    }),
    "rates-perp": st.fixed_dictionaries({
        "model": st.fixed_dictionaries({"coupling": FLOATS, "cutoff": FLOATS}),
        "sweep": _sweep("omega"),
    }),
    "trajectory": st.fixed_dictionaries({
        "run": RUN,
        "model": st.fixed_dictionaries({
            **LONGITUDINAL, "omega0": FLOATS, "omega_ext": OPTIONAL,
            "x1_0": OPTIONAL, "x2_0": OPTIONAL, "x3_0": OPTIONAL,
            "frame": st.sampled_from(["lab", "rotating", "interaction"]),
        }),
        "sweep": _sweep("time"),
    }),
    "echo": st.fixed_dictionaries({
        "model": st.fixed_dictionaries({
            "t2": FLOATS, "tau_c": FLOATS, "period": FLOATS, "omega0": FLOATS,
            "delta": OPTIONAL, "omega_ext": OPTIONAL,
            "x1_0": OPTIONAL, "x2_0": OPTIONAL,
        }),
        "ensemble": ENSEMBLES,
        "sweep": _sweep("time"),
    }),
    "generator-audit": st.fixed_dictionaries({
        "run": RUN, "model": st.fixed_dictionaries(LONGITUDINAL),
    }),
    "extract-tauc": st.fixed_dictionaries({
        "rows": st.lists(st.tuples(FLOATS, FLOATS), max_size=3),
    }),
}
EXAMPLES = {
    "rates-parallel": 500,
    "rates-perp": 500,
    "trajectory": 60,
    "echo": 120,
    "generator-audit": 40,
    "extract-tauc": 150,
}


def _text(value) -> str:
    if isinstance(value, list):
        return " ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def _write(workdir: Path, scenario: str, sections: dict) -> Path:
    sections = dict(sections)
    run = {"schema_version": 1, "scenario": scenario, "output": "out.tsv",
           **sections.pop("run", {})}
    rows = sections.pop("rows", None)
    if rows is not None:
        (workdir / "measured.txt").write_text(
            "".join(f"{p!r} {r!r}\n" for p, r in rows), encoding="ascii")
        run["input"] = "measured.txt"
    lines = []
    for section, entries in {"run": run, **sections}.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_text(value)}"
                     for key, value in entries.items() if value is not None)
    config = workdir / "run.ini"
    config.write_text("\n".join(lines) + "\n", encoding="ascii")
    return config


def _raised_in_floqlind(exc: BaseException) -> bool:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return PACKAGE in Path(tb.tb_frame.f_code.co_filename).resolve().parents


def _check_exit_contract(scenario: str, sections: dict) -> None:
    failures = []
    run = cli.run

    def kept(config_path):
        try:
            return run(config_path)
        except Exception as exc:
            failures.append(exc)
            raise

    with tempfile.TemporaryDirectory() as workdir, \
            mock.patch.object(cli, "run", kept):
        code = cli.main([str(_write(Path(workdir), scenario, sections))])
    assert code in (0, 2, 3)
    assert bool(failures) == (code != 0)
    for exc in failures:
        assert not ERRNO_TUPLE.match(str(exc)), repr(exc)
        # No config supplies a matrix: a non-finite one was computed.
        assert str(exc) != NON_FINITE_MATRIX, repr(exc)
        assert (_raised_in_floqlind(exc)
                or isinstance(exc, (configparser.Error, OSError))), repr(exc)
        expected = NumericFailure if code == 3 else (
            InputError, configparser.Error, OSError)
        assert isinstance(exc, expected), repr(exc)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_scenario_keeps_the_exit_contract(scenario):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=EXAMPLES[scenario])
    @given(SCENARIOS[scenario])
    def check(sections):
        _check_exit_contract(scenario, sections)

    check()
