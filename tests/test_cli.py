"""End-to-end tests of the config-driven command line front end."""

import hashlib
import math
import re
import sys
import textwrap

import numpy as np
import pytest
from conftest import (
    REFERENCE_ROW_FORMATS,
    reference_echo_signal,
    reference_floor_frac,
    reference_write_table,
    run_at_both_simd_levels,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_benchmark_contract import WORKLOADS

from floqlind import cli, operators
from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import TLSParams, closed_form_parallel
from floqlind.echo import (
    DiscreteDetuning,
    GaussianDetuning,
    UniformDetuning,
    averaged_phase,
)
from floqlind.errors import ConfigError
from floqlind.floquet import floor_frac
from floqlind.lindblad import RateResult, rate_parallel_closed, rate_perp_closed
from floqlind.operators import bloch_from_density


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="ascii")
    return path


def read_table(path):
    """Split a result file into (header lines, float data rows)."""
    header, rows = [], []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            rows.append(line.split("\t"))
    return header, rows


PARALLEL_CONFIG = """
    [run]
    schema_version = 1
    scenario = rates-parallel
    output = rates.tsv

    [model]
    t2 = 2.0
    tau_c = 3.0

    [sweep]
    parameter = omega
    start = 0.5
    stop = 50.0
    points = 12
    spacing = log
"""


def test_rates_parallel_table(tmp_path):
    config = write_config(tmp_path, PARALLEL_CONFIG)
    out = cli.run(config)
    assert out == tmp_path / "rates.tsv"
    header, rows = read_table(out)
    assert header[0] == "# schema_version = 1"
    assert header[1] == "# scenario = rates-parallel"
    assert "# config model.t2 = 2.0" in header
    assert header[-1] == "# columns: omega period eta_parallel gamma"
    assert len(rows) == 12
    density = Lorentzian(t2=2.0, tau_c=3.0)
    expected_omegas = np.geomspace(0.5, 50.0, 12)
    for row, omega in zip(rows, expected_omegas):
        period = 2.0 * math.pi / omega
        closed = rate_parallel_closed(period, 2.0, 3.0).eta
        cells = (omega, period, closed, density.evaluate(omega))
        assert row == ["%.12e" % value for value in cells]


def test_a_log_sweep_reaches_the_largest_double(tmp_path, capsys):
    """10**log10(stop) overflows at the top double; the pinned endpoint
    is never powered, so the sweep runs and ends on it."""
    body = (
        PARALLEL_CONFIG.replace("start = 0.5", "start = 1.0")
        .replace("stop = 50.0", f"stop = {sys.float_info.max!r}")
        .replace("points = 12", "points = 5")
    )
    config = write_config(tmp_path, body)
    assert cli.main([str(config)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_table(tmp_path / "rates.tsv")
    assert len(rows) == 5
    assert rows[0][0] == "%.12e" % 1.0
    assert rows[-1][0] == "%.12e" % sys.float_info.max


def test_a_log_sweep_from_the_largest_double_stays_on_it(tmp_path, capsys):
    """With start = stop = the top double, every interior 10**log10(stop)
    rounds past it; those points are stop, not an errno-34 failure."""
    top = sys.float_info.max
    body = (
        PARALLEL_CONFIG.replace("start = 0.5", f"start = {top!r}")
        .replace("stop = 50.0", f"stop = {top!r}")
        .replace("points = 12", "points = 3")
    )
    assert cli.main([str(write_config(tmp_path, body))]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_table(tmp_path / "rates.tsv")
    assert [row[0] for row in rows] == ["%.12e" % top] * 3


def test_runs_are_byte_deterministic(tmp_path):
    config = write_config(tmp_path, PARALLEL_CONFIG)
    first = cli.run(config).read_bytes()
    second = cli.run(config).read_bytes()
    assert first == second


PERP_CONFIG = """
    [run]
    schema_version = 1
    scenario = rates-perp
    output = perp.tsv

    [model]
    coupling = 1.0
    cutoff = 1.0

    [sweep]
    parameter = omega
    start = 0.2
    stop = 12.0
    points = 9
    spacing = linear
"""


def test_rates_perp_table(tmp_path):
    out = cli.run(write_config(tmp_path, PERP_CONFIG))
    header, rows = read_table(out)
    assert "# columns: omega eta_perp gamma" in header
    density = PhononCutoff(coupling=1.0, cutoff=1.0)
    assert len(rows) == 9
    for row, omega in zip(rows, np.linspace(0.2, 12.0, 9)):
        closed = rate_perp_closed(omega, 1.0, 1.0).eta
        cells = (omega, closed, density.evaluate(omega))
        assert row == ["%.12e" % value for value in cells]


def test_trajectory_matches_the_closed_form(tmp_path):
    config = write_config(
        tmp_path,
        """
        [run]
        schema_version = 1
        scenario = trajectory
        output = traj.tsv

        [model]
        t2 = 2.0
        tau_c = 3.0
        period = 1.3
        delta = 0.6
        omega0 = 5.0

        [sweep]
        parameter = time
        start = 0.0
        stop = 10.0
        points = 21
        spacing = linear
        """,
    )
    out = cli.run(config)
    header, rows = read_table(out)
    assert "# columns: time x1 x2 x3" in header
    eta = rate_parallel_closed(1.3, 2.0, 3.0).eta
    params = TLSParams(omega0=5.0, omega_ext=4.4, period=1.3, eta=eta)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for row in rows:
        t, x1, x2, x3 = (float(cell) for cell in row)
        expected = bloch_from_density(closed_form_parallel(params, rho0, t))
        assert x1 == pytest.approx(expected[0], abs=1e-6)
        assert x2 == pytest.approx(expected[1], abs=1e-6)
        assert x3 == pytest.approx(expected[2], abs=1e-6)


ECHO_CONFIG = """
    [run]
    schema_version = 1
    scenario = echo
    output = echo.tsv

    [model]
    t2 = 2.0
    tau_c = 3.0
    period = 1.3
    omega0 = 5.0
    x1_0 = 0.6
    x2_0 = -0.3

    [ensemble]
    kind = gaussian
    sigma = 2.3

    [sweep]
    parameter = time
    start = 0.65
    stop = 13.65
    points = 11
    spacing = linear
"""


def test_echo_table_shows_the_revivals(tmp_path):
    out = cli.run(write_config(tmp_path, ECHO_CONFIG))
    header, rows = read_table(out)
    assert "# columns: time avg_cos avg_sin x1 x2" in header
    assert "# config ensemble.kind = gaussian" in header
    eta = rate_parallel_closed(1.3, 2.0, 3.0).eta
    for row in rows:
        t, avg_cos, avg_sin, x1, x2 = (float(cell) for cell in row)
        assert avg_cos**2 + avg_sin**2 <= 1.0 + 1e-12
        # Every sampled time is an echo time (n + 1/2) T.
        fast = math.exp(-2.0 * eta * t)
        slow = math.exp(-eta * t)
        assert math.hypot(x1, x2) == pytest.approx(
            math.hypot(0.6 * fast, 0.3 * slow), abs=1e-9
        )
    # Each cell is the library's scalar value, printed with %.12e.
    ensemble = GaussianDetuning(sigma=2.3)
    params = TLSParams(omega0=5.0, omega_ext=5.0, period=1.3, eta=eta)
    assert len(rows) == 11
    for row, t in zip(rows, np.linspace(0.65, 13.65, 11)):
        cos_phi, sin_phi = averaged_phase(ensemble, params, float(t))
        n, _ = floor_frac(float(t), 1.3)
        slow = (-1.0) ** n * math.exp(-eta * t)
        fast = math.exp(-2.0 * eta * t)
        cells = (
            t,
            cos_phi,
            sin_phi,
            fast * cos_phi * 0.6 - slow * sin_phi * -0.3,
            fast * sin_phi * 0.6 + slow * cos_phi * -0.3,
        )
        assert row == ["%.12e" % value for value in cells]


ECHO_MARKS_CONFIG = """
    [run]
    schema_version = 1
    scenario = echo
    output = echo.tsv

    [model]
    t2 = 2.0
    tau_c = 3.0
    period = 1.3
    omega0 = 5.0
    delta = 0.2
    x1_0 = 0.6
    x2_0 = -0.3

    [ensemble]
    kind = {kind}
    {keys}

    [sweep]
    parameter = time
    start = 0.0
    stop = 25.987
    points = 2000
"""

ECHO_ENSEMBLES = {
    "gaussian": ("sigma = 2.3", GaussianDetuning(sigma=2.3)),
    "uniform": ("halfwidth = 1.8", UniformDetuning(halfwidth=1.8)),
    "discrete": (
        "deltas = -1.1 0.4 2.0\n    weights = 0.3 0.45 0.25",
        DiscreteDetuning(
            deltas=np.array([-1.1, 0.4, 2.0]), weights=np.array([0.3, 0.45, 0.25])
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(ECHO_ENSEMBLES))
def test_echo_table_prints_the_per_point_reference_in_every_row(tmp_path, kind):
    """The machine-independent pin of the echo bytes: every one of 2000 rows
    is the per-point reference printed with %.12e.  The times step by T/100,
    so t = 0, 19 more kicks and 20 echoes are among them."""
    keys, ensemble = ECHO_ENSEMBLES[kind]
    body = ECHO_MARKS_CONFIG.format(kind=kind, keys=keys)
    out = cli.run(write_config(tmp_path, body))
    _, rows = read_table(out)
    times = np.linspace(0.0, 25.987, 2000)
    fracs = np.array([reference_floor_frac(float(t), 1.3)[1] for t in times])
    assert np.count_nonzero(fracs == 0.0) == 20
    assert np.count_nonzero(np.abs(fracs - 0.5) < 1e-12) == 20
    eta = rate_parallel_closed(1.3, 2.0, 3.0).eta
    params = TLSParams(omega0=5.0, omega_ext=5.0 - 0.2, period=1.3, eta=eta)
    avg_cos, avg_sin, transverse = reference_echo_signal(
        ensemble, params, (0.6, -0.3), times
    )
    expected = zip(times, avg_cos, avg_sin, *transverse.T)
    assert rows == [["%.12e" % cell for cell in row] for row in expected]


def _calls_while_writing(path, rows):
    """Python and builtin calls made while one float table is written."""
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) for _ in range(5)]
    names = ("time", "avg_cos", "avg_sin", "x1", "x2")
    calls = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(event)

    sys.setprofile(profile)
    try:
        cli._write_table(path, "echo", names, columns, {})
    finally:
        sys.setprofile(None)
    _, table = read_table(path)
    assert table == [["%.12e" % cell for cell in row] for row in zip(*columns)]
    return len(calls)


def test_writing_a_float_table_makes_no_call_per_cell(tmp_path):
    """Counted, not timed: per-cell formatting would make 5 calls a row."""
    _calls_while_writing(tmp_path / "warm-up.tsv", 1)  # first-use imports
    few = _calls_while_writing(tmp_path / "few.tsv", 10)
    many = _calls_while_writing(tmp_path / "many.tsv", 4000)
    assert many == few < 50


def _calls(write):
    """Python and builtin calls made by write()."""
    calls = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(event)

    sys.setprofile(profile)
    try:
        write()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize(
    "body", [PARALLEL_CONFIG, ECHO_CONFIG], ids=["rates-parallel", "echo-gaussian"]
)
def test_a_batched_table_makes_no_call_per_point(tmp_path, body):
    """Counted, not timed: the rates and the Gaussian characteristic
    function take the whole sweep in one call."""

    def calls(points):
        sized = re.sub(r"points = \d+", f"points = {points}", body)
        config = write_config(tmp_path, sized)
        return _calls(lambda: cli.run(config))

    calls(1)  # first-use imports
    assert calls(4000) == calls(10)


def test_perp_rates_of_an_array_make_no_call_per_point():
    def calls(points):
        omegas = np.linspace(0.1, 20.0, points)
        return _calls(lambda: rate_perp_closed(omegas, 0.8, 1.3))

    calls(1)
    assert calls(4000) == calls(10)


def test_writing_a_mixed_table_makes_no_call_per_cell(tmp_path):
    """Three float columns and an int one, as extract-tauc writes."""
    names = ("t2", "tau_c", "residual", "degenerate")
    row_format = REFERENCE_ROW_FORMATS["extract-tauc"]

    def calls(rows):
        rng = np.random.default_rng(rows)
        columns = [*rng.standard_normal((3, rows)), rng.integers(0, 2, rows)]
        path, reference = tmp_path / "mixed.tsv", tmp_path / "reference.tsv"
        count = _calls(
            lambda: cli._write_table(path, "extract-tauc", names, columns, {})
        )
        reference_write_table(reference, "extract-tauc", names, row_format, columns, {})
        assert path.read_bytes() == reference.read_bytes()
        return count

    calls(1)  # first-use imports
    assert calls(4000) == calls(10) < 50


def _printed(values):
    """_scientific's cells with their NUL padding dropped."""
    cells = cli._scientific(np.asarray(values, dtype=float))
    return [cell.replace(b"\0", b"") for cell in cells.ravel().tolist()]


def _assert_prints_as_percent(values):
    values = np.asarray(values, dtype=float)
    assert cli._scientific(values).shape == values.shape
    assert _printed(values) == [b"%.12e" % value for value in values.ravel().tolist()]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_scientific_prints_every_finite_double_as_percent_does(value):
    """Subnormals and both zeros included."""
    _assert_prints_as_percent([value, -value])


def test_scientific_prints_random_bit_patterns_as_percent_does():
    rng = np.random.default_rng(13)
    for _ in range(10):  # 10^6 patterns of both signs, 10^5 at a time
        values = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = 0.0
        _assert_prints_as_percent(values.reshape(-1, 5))


def test_scientific_prints_powers_of_ten_and_carries_as_percent_does():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_prints_as_percent(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)]
    )
    # The fast path's edges, and 13 digits that round up to the next power.
    edges = np.array([1e-280, 1e280, 5e-324, sys.float_info.min, sys.float_info.max])
    nines = [f"9.99999999999{tail}e{k}" for tail in ("95", "951", "96", "949")
             for k in range(-300, 301, 7)]
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                             [float(text) for text in nines]])
    _assert_prints_as_percent(np.concatenate([values, -values]))


def test_scientific_prints_extreme_exponents_as_percent_does():
    rng = np.random.default_rng(7)
    mantissas = rng.uniform(1.0, 10.0, 200).tolist()
    values = [float(f"{m!r}e{k}") for m in mantissas
              for k in (-308, -280, -100, -99, 99, 100, 280, 308)]
    values = np.array(values)
    _assert_prints_as_percent(np.concatenate([values, -values]))


def test_scientific_rounds_decimal_half_way_points_as_percent_does():
    """13 digits followed by a 5: exact ties, which round to even, and the
    doubles nearest to ties, which fall on the side of their binary value;
    each lies within 0.01 of a half-integer once scaled, so % prints it."""
    rng = np.random.default_rng(11)
    leads = rng.integers(10**12, 10**13, 500).tolist()
    ties = [float(10 * lead + 5) * scale for lead in leads for scale in (1.0, 10.0)]
    near = [float(f"{lead}5e{k}") for lead in leads[:100] for k in range(-290, 280, 37)]
    values = np.array(ties + near)
    _assert_prints_as_percent(np.concatenate([values, -values]))


def _table_columns(rng, kinds, rows):
    """One column per kind: "f" floats, half of them random bit patterns
    (zeros of both signs where not finite) and half standard normals; "i"
    signed ints; "s" ASCII text of 0 to 40 characters, wider than a float
    cell."""
    columns = []
    for kind in kinds:
        if kind == "f":
            bits = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
            bits = np.where(np.isfinite(bits), bits, np.copysign(0.0, bits))
            normals = rng.standard_normal(rows)
            columns.append(np.where(rng.random(rows) < 0.5, bits, normals))
        elif kind == "i":
            columns.append(rng.integers(-10**15, 10**15, rows))
        else:
            columns.append(np.array(["x" * (k % 41) for k in range(rows)]))
    return columns


# Row counts around the block size: (blocks, extra rows) per table.
BLOCK_EDGES = pytest.mark.parametrize(
    "blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["step-1", "step", "step+1", "2*step+1"],
)


def _assert_writes_as_reference(tmp_path, kinds, blocks, extra):
    step = cli._BLOCK_CELLS // len(kinds) + 1  # rows per block
    rows = blocks * step + extra
    columns = _table_columns(np.random.default_rng(rows), kinds, rows)
    names = tuple(f"c{j}" for j in range(len(kinds)))
    row_format = "\t".join({"f": "%.12e", "i": "%d", "s": "%s"}[k] for k in kinds)
    path, reference = tmp_path / "table.tsv", tmp_path / "reference.tsv"
    resolved = {"run.seed": "1"}
    cli._write_table(path, "edges", names, columns, resolved)
    reference_write_table(reference, "edges", names, row_format, columns, resolved)
    assert path.read_bytes() == reference.read_bytes()


@BLOCK_EDGES
@pytest.mark.parametrize("kinds", ["f", "fff", "ffff", "fffff"])
def test_a_float_table_is_written_as_the_reference_at_block_edges(
    tmp_path, kinds, blocks, extra
):
    _assert_writes_as_reference(tmp_path, kinds, blocks, extra)


@BLOCK_EDGES
@pytest.mark.parametrize(
    "kinds",
    ["fffi", "ss", "fsif", "sfff"],
    ids=["extract-tauc", "generator-audit", "float-text-int-float", "text-first"],
)
def test_a_mixed_table_is_written_as_the_reference_at_block_edges(
    tmp_path, kinds, blocks, extra
):
    """Int columns, and text wider than a float cell, which widens every
    cell of the table; floats on both sides of a text column."""
    _assert_writes_as_reference(tmp_path, kinds, blocks, extra)


def test_the_writer_does_not_depend_on_numpys_simd_level(tmp_path):
    """Hashes what _write_table writes for random bit patterns with numpy's
    AVX-512 kernels on and off.  log10, floor and rint are dispatched by
    SIMD level, so the printed digits must come only from the correctly
    rounded power and one IEEE product.  On a host without AVX-512 both
    runs take the same kernels."""
    script = textwrap.dedent("""
        import hashlib, sys
        from pathlib import Path
        import numpy as np
        from floqlind import cli
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, (50_000, 5), dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = 0.0
        # ldexp is exact, so these inputs do not depend on the SIMD level.
        scales = rng.integers(-100, 100, (50_000, 5))
        scaled = np.ldexp(rng.standard_normal((50_000, 5)), scales)
        path = Path(sys.argv[1])
        for table in (values, scaled):
            cli._write_table(path, "echo", "abcde", list(table.T), {})
            print(hashlib.sha256(path.read_bytes()).hexdigest())
    """)
    runs = run_at_both_simd_levels(script, str(tmp_path / "table.tsv"))
    assert len(runs[0]) == 2
    assert runs[0] == runs[1]


AUDIT_CONFIG = """
    [run]
    schema_version = 1
    scenario = generator-audit
    output = audit.tsv
    seed = 3

    [model]
    t2 = 2.0
    tau_c = 3.0
    period = 1.3
    delta = 0.6
"""


def test_generator_audit_certifies_the_build(tmp_path):
    out = cli.run(write_config(tmp_path, AUDIT_CONFIG))
    header, rows = read_table(out)
    assert "# columns: quantity value" in header
    audit = {row[0]: float(row[1]) for row in rows}
    assert audit["eta_closed"] == pytest.approx(
        rate_parallel_closed(1.3, 2.0, 3.0).eta, rel=1e-12
    )
    assert audit["rel_residual"] < 1e-6
    assert audit["trace_defect_max"] <= 1e-10
    assert audit["choi_min_eig_min"] >= -1e-10
    assert audit["q_max_used"] >= 64
    assert audit["tail_bound"] >= 0.0


def test_extract_tauc_round_trip(tmp_path):
    t2, tau_c, t_fast = 2.0, 1.0, 0.37
    eta_fast = rate_parallel_closed(t_fast, t2, tau_c).eta
    (tmp_path / "measured.txt").write_text(
        f"# period rate\n5000.0 {1.0 / t2!r}\n{t_fast!r} {eta_fast!r}\n",
        encoding="ascii",
    )
    config = write_config(
        tmp_path,
        """
        [run]
        schema_version = 1
        scenario = extract-tauc
        output = fit.tsv
        input = measured.txt
        """,
    )
    out = cli.run(config)
    header, rows = read_table(out)
    assert "# columns: t2 tau_c residual degenerate" in header
    assert len(rows) == 1
    fitted_t2, fitted_tau, residual, degenerate = (float(c) for c in rows[0])
    assert fitted_t2 == pytest.approx(t2, rel=1e-12)
    assert fitted_tau == pytest.approx(tau_c, rel=1e-9)
    assert residual < 1e-12
    assert degenerate == 0


def test_output_path_resolves_next_to_the_config(tmp_path, monkeypatch):
    nested = tmp_path / "cfg"
    nested.mkdir()
    config = write_config(nested, PARALLEL_CONFIG)
    monkeypatch.chdir(tmp_path)
    out = cli.run(config)
    assert out == nested / "rates.tsv"
    assert out.exists()


def test_main_success_prints_the_output_path(tmp_path, capsys):
    config = write_config(tmp_path, PARALLEL_CONFIG)
    assert cli.main([str(config)]) == 0
    captured = capsys.readouterr()
    assert str(tmp_path / "rates.tsv") in captured.out
    assert captured.err == ""


ECHO_DISCRETE_CONFIG = """
    [run]
    schema_version = 1
    scenario = echo
    output = echo.tsv

    [model]
    t2 = 2.0
    tau_c = 3.0
    period = 1.3
    omega0 = 5.0

    [ensemble]
    kind = discrete
    deltas = 0.0 0.5
    weights = 0.5 0.5

    [sweep]
    parameter = time
    start = 0.0
    stop = 13.0
    points = 5
"""


@pytest.mark.parametrize(
    "mutation",
    [
        (PARALLEL_CONFIG, "schema_version = 1", "schema_version = 2"),
        (PARALLEL_CONFIG, "scenario = rates-parallel", "scenario = rates-diagonal"),
        (PARALLEL_CONFIG, "t2 = 2.0", "t2 = warm"),
        (PARALLEL_CONFIG, "points = 12", "points = 0"),
        (PARALLEL_CONFIG, "spacing = log", "spacing = cubic"),
        (PARALLEL_CONFIG, "start = 0.5", "start = -0.5"),
        (PARALLEL_CONFIG, "parameter = omega", "parameter = period"),
        (ECHO_DISCRETE_CONFIG, "deltas = 0.0 0.5", "deltas = 0.0 inf"),
        (ECHO_DISCRETE_CONFIG, "weights = 0.5 0.5", "weights = nan nan"),
        # Keys the scenario never reads: a misspelling, a stray section.
        (AUDIT_CONFIG, "delta = 0.6", "detla = 0.6"),
        (AUDIT_CONFIG, "delta = 0.6", "delta = 0.6\n    [ensemble]\n    kind = gaussian"),
        # Values outside their domain: no tolerance is met by a finite q_max,
        # and an echo before t = 0 grows out of the Bloch ball.
        (AUDIT_CONFIG, "seed = 3", "seed = 3\n    rel_tol = 0"),
        (AUDIT_CONFIG, "seed = 3", "seed = 3\n    rel_tol = -1e-8"),
        (ECHO_DISCRETE_CONFIG, "start = 0.0", "start = -20.0"),
    ],
)
def test_main_rejects_bad_configs(tmp_path, capsys, mutation):
    base, old, new = mutation
    assert old in base
    config = write_config(tmp_path, base.replace(old, new))
    assert cli.main([str(config)]) == 2
    assert "floqlind: config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, old, new, message",
    [
        (PARALLEL_CONFIG, "t2 = 2.0", "t2 = inf", "[model] t2 must be finite, got 'inf'"),
        (
            PARALLEL_CONFIG,
            "points = 12",
            "points = 2.5",
            "[sweep] points = '2.5' is not an integer",
        ),
        (
            PARALLEL_CONFIG,
            "    points = 12\n",
            "",
            "missing required key 'points' in section [sweep]",
        ),
        (
            ECHO_DISCRETE_CONFIG,
            "deltas = 0.0 0.5",
            "deltas = 0.0 half",
            "[ensemble] deltas must be a list of numbers, got '0.0 half'",
        ),
        (
            ECHO_DISCRETE_CONFIG,
            "kind = discrete",
            "kind = lorentzian",
            "[ensemble] kind must be gaussian, uniform, or discrete, "
            "got 'lorentzian'",
        ),
    ],
    ids=["non-finite", "fractional-points", "missing-points", "non-numeric-list",
         "unknown-ensemble"],
)
def test_main_names_the_malformed_value(tmp_path, capsys, base, old, new, message):
    assert old in base
    config = write_config(tmp_path, base.replace(old, new))
    assert cli.main([str(config)]) == 2
    assert capsys.readouterr().err == f"floqlind: config error: {message}\n"
    assert list(tmp_path.glob("*.tsv")) == []


def test_main_names_every_unread_key(tmp_path, capsys):
    body = PARALLEL_CONFIG.replace("t2 = 2.0", "t2 = 2.0\n    T2_ = 1.0").replace(
        "[sweep]", "[sweeep]\n    points = 3\n\n    [sweep]"
    )
    config = write_config(tmp_path, body)
    assert cli.main([str(config)]) == 2
    err = capsys.readouterr().err
    assert "[model] t2_, [sweeep] points" in err
    assert not (tmp_path / "rates.tsv").exists()


def test_default_section_keys_are_read_once_for_all_sections(tmp_path, capsys):
    body = PARALLEL_CONFIG.replace("[run]", "[DEFAULT]\n    seed = 3\n\n    [run]")
    header, _ = read_table(cli.run(write_config(tmp_path, body)))
    assert "# config run.seed = 3" in header
    config = write_config(tmp_path, body.replace("seed = 3", "seed = 3\n    sead = 4"))
    assert cli.main([str(config)]) == 2
    assert "keys this scenario does not read: [DEFAULT] sead" in capsys.readouterr().err


def test_main_rejects_missing_keys_and_files(tmp_path, capsys):
    assert cli.main([str(tmp_path / "absent.ini")]) == 2
    assert "floqlind: config error:" in capsys.readouterr().err

    config = write_config(
        tmp_path,
        """
        [run]
        schema_version = 1
        scenario = rates-parallel
        output = rates.tsv

        [model]
        t2 = 2.0

        [sweep]
        parameter = omega
        start = 0.5
        stop = 50.0
        points = 5
        """,
        name="missing_tauc.ini",
    )
    assert cli.main([str(config)]) == 2
    assert "tau_c" in capsys.readouterr().err

    malformed = tmp_path / "broken.ini"
    malformed.write_text("run]\nscenario oops\n", encoding="ascii")
    assert cli.main([str(malformed)]) == 2
    assert "floqlind: config error:" in capsys.readouterr().err


EXTRACT_CONFIG = """
    [run]
    schema_version = 1
    scenario = extract-tauc
    output = fit.tsv
    input = measured.txt
"""


def _extract_config(tmp_path, rows):
    (tmp_path / "measured.txt").write_text(
        "\n".join(f"{p!r} {r!r}" for p, r in rows) + "\n", encoding="ascii"
    )
    return write_config(tmp_path, EXTRACT_CONFIG)


def test_main_reports_numeric_failures(tmp_path, capsys):
    config = _extract_config(tmp_path, [(5000.0, 0.5), (0.37, 0.9)])
    assert cli.main([str(config)]) == 3
    assert "floqlind: numeric failure:" in capsys.readouterr().err

    config = _extract_config(tmp_path, [(5000.0, 0.5), (0.37, 5e-10)])
    assert cli.main([str(config)]) == 3
    assert "floqlind: numeric failure:" in capsys.readouterr().err

    config = _extract_config(tmp_path, [(0.37, 0.5), (0.37, 0.3)])
    assert cli.main([str(config)]) == 3
    err = capsys.readouterr().err
    assert err == "floqlind: numeric failure: need two distinct kick periods\n"

    # The inversion reads two rows; a third is refused, even one that fits.
    rows = [(p, rate_parallel_closed(p, 2.0, 1.0).eta) for p in (5000.0, 2.0, 0.37)]
    config = _extract_config(tmp_path, rows)
    assert cli.main([str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure:")
    assert "need exactly two (period, rate) rows, got 3" in err
    assert list(tmp_path.glob("*.tsv")) == []


ZERO_ROWS = "need exactly two (period, rate) rows, got 0"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", ZERO_ROWS),
        ("# period rate\n\n", ZERO_ROWS),
        ("5000.0 0.5\n0.0 0.3\n",
         "(period, rate) row 2: the kick period must be > 0, got 0.0"),
        ("5000.0 0.5\n-0.37 0.3\n",
         "(period, rate) row 2: the kick period must be > 0, got -0.37"),
        ("nan 0.5\n0.37 0.3\n",
         "(period, rate) row 1: the kick period must be > 0, got nan"),
    ],
    ids=["empty", "comments-only", "zero-period", "negative-period", "nan-period"],
)
def test_main_sorts_every_bad_measurement_row_as_inconsistent_data(
    tmp_path, capsys, text, message
):
    """No rows, and a period that is not > 0, are inconsistent data (exit
    3) like a wrong row count: no numpy warning, and no config error about
    a t_fast the file does not hold."""
    (tmp_path / "measured.txt").write_text(text, encoding="ascii")
    config = write_config(tmp_path, EXTRACT_CONFIG)
    assert cli.main([str(config)]) == 3
    assert capsys.readouterr().err == f"floqlind: numeric failure: {message}\n"
    assert list(tmp_path.glob("*.tsv")) == []


def test_an_infinite_slow_period_is_the_limit_the_fit_assumes(tmp_path):
    rows = [(5000.0, 0.5), (0.37, rate_parallel_closed(0.37, 2.0, 1.0).eta)]
    finite = cli.run(_extract_config(tmp_path, rows)).read_bytes()
    rows[0] = (math.inf, 0.5)
    assert cli.run(_extract_config(tmp_path, rows)).read_bytes() == finite


@pytest.mark.parametrize("t_fast", [5e-324, 1e-310])
def test_main_reports_a_bath_time_below_the_normal_doubles_as_numeric(
    tmp_path, capsys, t_fast
):
    config = _extract_config(tmp_path, [(5000.0, 0.5), (t_fast, 0.3)])
    assert cli.main([str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure: tau_c = ")
    assert f"at t_fast = {t_fast!r} is not a normal double" in err
    assert list(tmp_path.glob("*.tsv")) == []


@pytest.mark.parametrize(
    "body, message",
    [
        # 1/t2 overflows: every rate and density cell is inf.
        (
            PARALLEL_CONFIG.replace("t2 = 2.0", "t2 = 1e-310"),
            "rates-parallel: column eta_parallel is inf in row 1 of 12;",
        ),
        # An infinite rate times t = 0 in the decay factors is NaN.
        (
            ECHO_CONFIG.replace("t2 = 2.0", "t2 = 1e-310").replace(
                "start = 0.65", "start = 0.0"
            ),
            "echo: column x1 is nan in row 1 of 11;",
        ),
        # The density is 3.68e308 here, above the double range; the rate,
        # 1.05e308, is not.
        (
            PERP_CONFIG.replace("coupling = 1.0", "coupling = 1e300")
            .replace("cutoff = 1.0", "cutoff = 1e3")
            .replace("start = 0.2", "start = 1e3")
            .replace("stop = 12.0", "stop = 1e3")
            .replace("points = 9", "points = 1"),
            "rates-perp: column gamma is inf in row 1 of 1;",
        ),
    ],
    ids=["rates-parallel", "echo", "rates-perp"],
)
def test_main_reports_a_non_finite_result_as_numeric(
    tmp_path, capsys, body, message
):
    config = write_config(tmp_path, body)
    assert cli.main([str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure: ")
    assert message in err
    assert list(tmp_path.glob("*.tsv")) == []


def test_generator_audit_never_prints_a_non_finite_value(tmp_path, monkeypatch):
    infinite = RateResult(math.inf)
    monkeypatch.setattr(cli, "rate_parallel_closed", lambda *args: infinite)
    expected = "generator-audit: column value is inf in row 1 of 7;"
    with pytest.raises(FloatingPointError, match=expected):
        cli.run(write_config(tmp_path, AUDIT_CONFIG))
    assert list(tmp_path.glob("*.tsv")) == []


def test_a_trajectory_at_a_huge_correlation_time_is_written(tmp_path):
    """tau_c = 1e300 puts every tail bound at 0 and the rate at 0; the
    Bloch vector then only precesses."""
    body = TRAJECTORY_CONFIG.replace("tau_c = 3.0", "tau_c = 1e300")
    assert cli.main([str(write_config(tmp_path, body))]) == 0
    _, rows = read_table(tmp_path / "traj.tsv")
    assert len(rows) == 5
    for row in rows:
        assert math.fsum(float(x) ** 2 for x in row[1:4]) == pytest.approx(1.0)


@pytest.mark.parametrize("sigma", [1e200, 1e300])
def test_an_echo_at_a_huge_detuning_width_is_written(tmp_path, capsys, sigma):
    """(sigma u)^2 is above the double range wherever u is not 0, so
    C(u) = 0 there: every row is the per-point reference, whose echoes
    alone keep a nonzero average."""
    keys = f"sigma = {sigma!r}"
    body = ECHO_MARKS_CONFIG.format(kind="gaussian", keys=keys)
    assert cli.main([str(write_config(tmp_path, body))]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_table(tmp_path / "echo.tsv")
    times = np.linspace(0.0, 25.987, 2000)
    eta = rate_parallel_closed(1.3, 2.0, 3.0).eta
    params = TLSParams(omega0=5.0, omega_ext=5.0 - 0.2, period=1.3, eta=eta)
    avg_cos, avg_sin, transverse = reference_echo_signal(
        GaussianDetuning(sigma), params, (0.6, -0.3), times
    )
    assert 0 < np.count_nonzero(avg_cos) < 100
    expected = zip(times, avg_cos, avg_sin, *transverse.T)
    assert rows == [["%.12e" % cell for cell in row] for row in expected]


def test_generator_audit_with_a_zero_closed_rate_is_a_numeric_failure(
    tmp_path, capsys
):
    body = AUDIT_CONFIG.replace("tau_c = 3.0", "tau_c = 1e300")
    assert cli.main([str(write_config(tmp_path, body))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure: generator-audit: ")
    assert "eta_closed is 0" in err and "rel_residual is undefined" in err
    assert list(tmp_path.glob("*.tsv")) == []


def test_generator_audit_whose_time_window_overflows_is_a_numeric_failure(
    tmp_path, capsys
):
    """eta_closed = 7e-310 is not 0, but 5/eta_closed, the end of the
    audit times, is inf, which numpy's uniform draw would refuse."""
    body = AUDIT_CONFIG.replace("tau_c = 3.0", "tau_c = 1e154")
    assert cli.main([str(write_config(tmp_path, body))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("floqlind: numeric failure: generator-audit: ")
    assert "5/eta_closed, which overflows at eta_closed = 7.04" in err
    assert list(tmp_path.glob("*.tsv")) == []


def test_generator_audit_whose_semigroup_is_not_finite_is_a_numeric_failure(
    tmp_path, capsys
):
    """Rates near the largest double make e^(tL) inf or NaN at the audit
    times; ``semigroup``'s FloatingPointError is a numeric failure, not
    numpy's or scipy's complaint about the Choi matrix sorted as a config
    error."""
    body = (
        AUDIT_CONFIG.replace("t2 = 2.0", "t2 = 2.2250738585072014e-308")
        .replace("tau_c = 3.0", "tau_c = 1e19")
        .replace("delta = 0.6", "strength = 5e-324")
    )
    assert cli.main([str(write_config(tmp_path, body))]) == 3
    err = capsys.readouterr().err
    found = re.fullmatch(
        r"floqlind: numeric failure: e\^\(tL\) at t = (\S+) has an inf or NaN "
        r"entry; the generator's largest entry is \S+ in magnitude\n",
        err,
    )
    assert found is not None and 0.0 < float(found[1]) < math.inf
    assert list(tmp_path.glob("*.tsv")) == []


def test_rates_perp_at_a_huge_coupling_prints_the_density_mpmath_gives(tmp_path):
    """coupling omega^3 overflows from omega ~ 565 and e^{-omega} underflows
    from 745, yet the density stays a double up to omega ~ 1100."""
    mpmath = pytest.importorskip("mpmath")
    body = PERP_CONFIG.replace("coupling = 1.0", "coupling = 1e300").replace(
        "stop = 12.0", "stop = 2000.0"
    )
    _, rows = read_table(cli.run(write_config(tmp_path, body)))
    omegas = np.linspace(0.2, 2000.0, 9).tolist()
    assert [row[0] for row in rows] == ["%.12e" % omega for omega in omegas]
    for row, omega in zip(rows, omegas):
        with mpmath.workdps(40):
            exact = 1e300 * mpmath.mpf(omega) ** 3 * mpmath.exp(-mpmath.mpf(omega))
        # 13 printed digits, and e^{-omega} of a rounded omega.
        rel = 5e-13 + 1e-15 * omega
        assert float(row[2]) == pytest.approx(float(exact), rel=rel, abs=1e-323)


def test_rates_perp_far_below_a_huge_cutoff_is_finite(tmp_path):
    # 1 - e^{-omega/cutoff} formed directly rounds to 0 here.
    body = PERP_CONFIG.replace("cutoff = 1.0", "cutoff = 1e16")
    _, rows = read_table(cli.run(write_config(tmp_path, body)))
    for row, omega in zip(rows, np.linspace(0.2, 12.0, 9)):
        assert float(row[1]) == pytest.approx(omega * 1e32 / math.pi**2, rel=1e-11)


TRAJECTORY_CONFIG = """
    [run]
    schema_version = 1
    scenario = trajectory
    output = traj.tsv

    [model]
    t2 = 2.0
    tau_c = 3.0
    period = 1.3
    omega0 = 5.0
    x1_0 = 0.0
    x3_0 = 1.0

    [sweep]
    parameter = time
    start = 0.0
    stop = 10.0
    points = 5
"""


@pytest.mark.parametrize("frame", ["lab", "rotating", "interaction"])
def test_a_trajectory_run_decomposes_once(tmp_path, decompose_calls, frame):
    body = TRAJECTORY_CONFIG.replace("x3_0 = 1.0", f"x3_0 = 1.0\n    frame = {frame}")
    cli.run(write_config(tmp_path, body))
    assert len(decompose_calls) == 1


@pytest.mark.parametrize(
    "keys, code, message",
    [
        # delta T = 1e310: the Floquet frame's phases overflow.
        (
            "period = 1e10\n    delta = 1e300",
            3,
            "floqlind: numeric failure: e^{i s H} overflows: s = -10000000000.0",
        ),
        # 2 pi / T = inf: no kick frequency.
        (
            "period = 1e-310",
            2,
            "floqlind: config error: period 1e-310 is too small: the kick "
            "frequency 2 pi / period overflows",
        ),
    ],
    ids=["frame", "kick-frequency"],
)
def test_main_sorts_an_overflowing_kicked_model(tmp_path, capsys, keys, code, message):
    body = TRAJECTORY_CONFIG.replace("period = 1.3", keys)
    assert cli.main([str(write_config(tmp_path, body))]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "traj.tsv").exists()


def test_main_rejects_a_trajectory_that_starts_before_zero(tmp_path, capsys):
    body = TRAJECTORY_CONFIG.replace("start = 0.0", "start = -1.0")
    assert cli.main([str(write_config(tmp_path, body))]) == 2
    err = capsys.readouterr().err
    assert "floqlind: config error:" in err
    assert "time must be >= 0" in err
    assert not (tmp_path / "traj.tsv").exists()


def test_main_rejects_a_bloch_vector_outside_the_ball(tmp_path, capsys):
    outside = TRAJECTORY_CONFIG.replace("x1_0 = 0.0", "x1_0 = 0.8")
    config = write_config(tmp_path, outside)
    assert cli.main([str(config)]) == 2
    err = capsys.readouterr().err
    assert "floqlind: config error:" in err
    assert "Bloch vector" in err


@pytest.mark.parametrize(
    "x3, code", [("1.000000000001", 0), ("1.0000000000021", 2)],
    ids=["inside", "outside"],
)
def test_main_takes_a_bloch_vector_up_to_the_density_tolerance(
    tmp_path, capsys, x3, code
):
    """|x| up to 1 + 2 PSD_ATOL is a state: its lowest eigenvalue
    (1 - |x|)/2 is then no lower than -PSD_ATOL, as as_density allows."""
    body = TRAJECTORY_CONFIG.replace("x3_0 = 1.0", f"x3_0 = {x3}")
    assert cli.main([str(write_config(tmp_path, body))]) == code
    assert (tmp_path / "traj.tsv").exists() == (code == 0)
    if code == 2:
        assert "initial Bloch vector" in capsys.readouterr().err


def test_main_reports_invalid_computed_states_as_numeric(
    tmp_path, capsys, monkeypatch
):
    config = write_config(tmp_path, TRAJECTORY_CONFIG)
    assert cli.main([str(config)]) == 0
    capsys.readouterr()
    # With no trace slack, the rounding of the evolved states trips the
    # guard inside evolve.
    monkeypatch.setattr(operators, "TRACE_ATOL", 0.0)
    assert cli.main([str(config)]) == 3
    err = capsys.readouterr().err
    assert "floqlind: numeric failure:" in err
    assert "|tr - 1|" in err


def test_run_raises_config_error_directly(tmp_path):
    config = write_config(
        tmp_path, PARALLEL_CONFIG.replace("schema_version = 1", "schema_version = 9")
    )
    with pytest.raises(ConfigError):
        cli.run(config)


@pytest.mark.parametrize(
    "body",
    [
        PARALLEL_CONFIG,
        PERP_CONFIG,
        TRAJECTORY_CONFIG,
        ECHO_CONFIG,
        ECHO_DISCRETE_CONFIG,
        AUDIT_CONFIG,
        EXTRACT_CONFIG,
    ],
)
def test_table_header_reruns_to_the_same_table(tmp_path, body):
    (tmp_path / "measured.txt").write_text("5000.0 0.5\n0.37 0.3\n", encoding="ascii")
    first = cli.run(write_config(tmp_path, body))
    table = first.read_bytes()
    first.unlink()
    lines = table.decode("ascii").splitlines()
    # "# schema_version = 1", "# scenario = ...", then "# config s.k = v".
    sections = {"run": [lines[0][2:], lines[1][2:]]}
    for line in lines:
        if line.startswith("# config "):
            name, value = line[len("# config ") :].split(" = ", 1)
            section, key = name.split(".", 1)
            sections.setdefault(section, []).append(f"{key} = {value}")
    rebuilt = tmp_path / "rebuilt.ini"
    rebuilt.write_text(
        "".join(
            f"[{section}]\n" + "".join(entry + "\n" for entry in entries)
            for section, entries in sections.items()
        ),
        encoding="ascii",
    )
    assert cli.run(rebuilt) == first
    assert first.read_bytes() == table


@pytest.fixture
def against_reference(monkeypatch):
    """Each table cli.run writes, with the one the % row writer writes for
    the same columns: (scenario, bytes, reference bytes)."""
    tables = []
    write = cli._write_table

    def both(path, scenario, names, columns, resolved):
        write(path, scenario, names, columns, resolved)
        reference = path.with_suffix(".reference")
        row_format = REFERENCE_ROW_FORMATS[scenario]
        reference_write_table(reference, scenario, names, row_format, columns, resolved)
        tables.append((scenario, path.read_bytes(), reference.read_bytes()))

    monkeypatch.setattr(cli, "_write_table", both)
    return tables


@pytest.mark.parametrize(
    "body",
    [
        PARALLEL_CONFIG,
        PERP_CONFIG,
        TRAJECTORY_CONFIG,
        ECHO_CONFIG,
        ECHO_DISCRETE_CONFIG,
        AUDIT_CONFIG,
        EXTRACT_CONFIG,
    ],
    ids=[
        "rates-parallel", "rates-perp", "trajectory", "echo", "echo-discrete",
        "generator-audit", "extract-tauc",
    ],
)
def test_tables_keep_the_bytes_of_the_percent_row_writer(
    tmp_path, against_reference, body
):
    (tmp_path / "measured.txt").write_text("5000.0 0.5\n0.37 0.3\n", encoding="ascii")
    cli.run(write_config(tmp_path, body))
    [(_, written, reference)] = against_reference
    assert written == reference


def test_benchmark_tables_keep_the_bytes_of_the_percent_row_writer(
    tmp_path, against_reference
):
    """The five cli-tables configs at seed 1: 120 000 rows."""
    workload = WORKLOADS["cli-tables"]
    workload.task(workload.setup(1, tmp_path))
    scenarios = [scenario for scenario, _, _ in against_reference]
    assert scenarios == ["rates-parallel", "rates-perp", "echo", "echo", "extract-tauc"]
    for scenario, written, reference in against_reference:
        assert written == reference, scenario


# Every table this module's configs write, by name.  The extract config
# reads the two-row measurement file that _table_configs puts beside it.
PINNED_CONFIGS = {
    "rates-parallel": PARALLEL_CONFIG,
    "rates-perp": PERP_CONFIG,
    "rates-perp-huge-coupling": PERP_CONFIG.replace(
        "coupling = 1.0", "coupling = 1e300"
    ).replace("stop = 12.0", "stop = 2000.0"),
    "rates-perp-huge-cutoff": PERP_CONFIG.replace("cutoff = 1.0", "cutoff = 1e16"),
    **{
        f"trajectory-{frame}": TRAJECTORY_CONFIG.replace(
            "x3_0 = 1.0", f"x3_0 = 1.0\n    frame = {frame}"
        )
        for frame in ("lab", "rotating", "interaction")
    },
    "echo": ECHO_CONFIG,
    "echo-discrete": ECHO_DISCRETE_CONFIG,
    **{
        f"echo-marks-{kind}": ECHO_MARKS_CONFIG.format(
            kind=kind, keys=ECHO_ENSEMBLES[kind][0]
        )
        for kind in sorted(ECHO_ENSEMBLES)
    },
    "generator-audit": AUDIT_CONFIG,
    "extract-tauc": EXTRACT_CONFIG,
}

# SHA-256 of each table: the configs above, then the five cli-tables
# configs at seeds 1-3.  Recomputed only by a change meant to move cells.
TABLE_DIGESTS = {
    "rates-parallel": "81b3d3cf613659f7690696451d86f0fa3d82a4761df8aa83b617c1f7ecdd7c75",
    "rates-perp": "70f54cd0249b3763242fbb37830aefa841882ce85011812695db616aceb4e238",
    "rates-perp-huge-coupling": "5c7f51b2b1524ff80b4abb7b63a461667a348a60c6eb0a806dcdf2d0081c0701",
    "rates-perp-huge-cutoff": "4ac8ff387934ba13225c312c4ae2e0e7c0df947a929ed26901634a4923cc68d8",
    "trajectory-lab": "339081cbae4939c94b4b2e297e09c8458a674d6205f63c46e18ce2b8d849b16d",
    "trajectory-rotating": "06e6978889ad5d3beffe7984d35d8c1fd54dfaf937e37f64cc42ba739924b65b",
    "trajectory-interaction": "0e43b02d325d3109212fc87df1896151d64f860ca9c7fc1a4ce685abf0daf116",
    "echo": "cfc9fa6614c8af201af23d0376883cc9c9faa3d98c9a896e20db2db46cd94cf4",
    "echo-discrete": "f4249e065a3431efb87a8c8d5d49c7d08d5cde4c384d9ca21ababc6eb96e586b",
    "echo-marks-discrete": "b5642ef5ad30eb4bee72fa88c0758d733d6288d4f3a774794dade1edd3d60b4d",
    "echo-marks-gaussian": "4779dfb9d1733ba1973d55cbe498603ff18047b7c3ecc07563f00d161ab17de9",
    "echo-marks-uniform": "c98d7ff6fa410335718989f447ebab9b2973b77014b068dbb03d3177c997bce0",
    "generator-audit": "7fdd7e2e47c0f29f1f5880d74181d3d03e8ac301ed5480abeb9f988aaefd4995",
    "extract-tauc": "852437798fe14a473354599464081752f4f9e7f1b7de28bab8c5dd174e7f089f",
    "cli-tables-1/parallel.tsv": "49f670f4b59519e2c011da354119f83dda8c4d3611a5bd2bcf0ef7b28734758e",
    "cli-tables-1/perp.tsv": "d1b805af7150dce7f5c9ddedd32870b79ac727c651d1d78325c55d1abd7da4af",
    "cli-tables-1/echo-discrete.tsv": "060c276acf9c4816c468792314f7060701b4930880cf5ca0cfc8eca1cded2751",
    "cli-tables-1/echo-gaussian.tsv": "9b4514f275a158beac1957330c711ffa9a6c56b40efc766b6d06100eb2c65509",
    "cli-tables-1/extract.tsv": "13bae643fd1d44676c145f1b44697569aa7d85f21e104a2567a097f68897c406",
    "cli-tables-2/parallel.tsv": "3cad7f63afc0856e8be82ab14a99b824be2a62a466bd6b73fe25816549502743",
    "cli-tables-2/perp.tsv": "af1fbc87a3f4e34d8bdab1b210bf6bae1a6b3f22fb579426e8437eb66e53754c",
    "cli-tables-2/echo-discrete.tsv": "ad954a88e259b17c86e495fb19e2dab12c7bdd3315b1aa03c8e5e9a9e6927643",
    "cli-tables-2/echo-gaussian.tsv": "3474e7a51a4e9c07474fd7d7a739db9b0ab271402f2b7d0b6a062c1041fd392b",
    "cli-tables-2/extract.tsv": "5a73cc5f4ad4b533438327e0ad7e79d6d34b1a6a0642e5172545d072443d1adc",
    "cli-tables-3/parallel.tsv": "6e64294da20a832b85a2cbe66f6e2df823578a4330a93fed9d17b86a84154d09",
    "cli-tables-3/perp.tsv": "29884b3268f6515fb62daef5610db12986ccc95acbf1bde8600afc1e1435c69f",
    "cli-tables-3/echo-discrete.tsv": "477a2319c774c5994cd15eae3098333aceda39e4853c611ff376b99aa8179863",
    "cli-tables-3/echo-gaussian.tsv": "ef55e3c6fe5077fbb53e61933521570e84d53c08c6902b3eeea66c05c4dac04a",
    "cli-tables-3/extract.tsv": "dee5909dc31c8182a8dccb5df3688373aa062b2815da8216bd960844b6b56737",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _table_configs(tmp_path):
    """The config of every pinned table, by name, each in its own directory."""
    configs = {}
    for name, body in PINNED_CONFIGS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        measured = workdir / "measured.txt"
        measured.write_text("5000.0 0.5\n0.37 0.3\n", encoding="ascii")
        configs[name] = write_config(workdir, body)
    workload = WORKLOADS["cli-tables"]
    for seed in (1, 2, 3):
        workdir = tmp_path / f"cli-tables-{seed}"
        workdir.mkdir()
        for config in workload.setup(seed, workdir).configs:
            configs[f"cli-tables-{seed}/{config.stem}.tsv"] = config
    return configs


def test_every_table_keeps_its_pinned_bytes(tmp_path):
    configs = _table_configs(tmp_path)
    tables = {name: _digest(cli.run(config)) for name, config in configs.items()}
    assert tables == TABLE_DIGESTS


def test_every_table_keeps_its_pinned_bytes_at_both_numpy_simd_levels(tmp_path):
    """Writes every pinned table with numpy's AVX-512 kernels on and off
    and checks both against TABLE_DIGESTS.  Cells whose bits must be
    libm's (the perp gamma column, log sweeps, the Floquet phases, the
    echo's decay factors) are formed from float calls: numpy's exp,
    expm1, power and angle would move some of them, and differently at
    each SIMD level.  On a host without AVX-512 both runs take the same
    kernels."""
    configs = _table_configs(tmp_path)
    script = textwrap.dedent("""
        import hashlib, sys
        from pathlib import Path
        from floqlind import cli
        for config in sys.argv[1:]:
            print(hashlib.sha256(cli.run(Path(config)).read_bytes()).hexdigest())
    """)
    paths = map(str, configs.values())
    for digests in run_at_both_simd_levels(script, *paths, timeout=300):
        assert dict(zip(configs, digests)) == TABLE_DIGESTS
