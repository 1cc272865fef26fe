"""End-to-end tests of the config-driven command line front end."""

import math
import textwrap

import numpy as np
import pytest

from floqlind import cli, operators
from floqlind.bath import Lorentzian, PhononCutoff
from floqlind.dynamics import TLSParams, closed_form_parallel
from floqlind.echo import GaussianDetuning, averaged_phase
from floqlind.errors import ConfigError
from floqlind.floquet import floor_frac
from floqlind.lindblad import rate_parallel_closed, rate_perp_closed
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


def test_runs_are_byte_deterministic(tmp_path):
    config = write_config(tmp_path, PARALLEL_CONFIG)
    first = cli.run(config).read_bytes()
    second = cli.run(config).read_bytes()
    assert first == second


def test_rates_perp_table(tmp_path):
    config = write_config(
        tmp_path,
        """
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
        """,
    )
    out = cli.run(config)
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


def test_echo_table_shows_the_revivals(tmp_path):
    config = write_config(
        tmp_path,
        """
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
        """,
    )
    out = cli.run(config)
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


def test_generator_audit_certifies_the_build(tmp_path):
    config = write_config(
        tmp_path,
        """
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
        """,
    )
    out = cli.run(config)
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
    ],
)
def test_main_rejects_bad_configs(tmp_path, capsys, mutation):
    base, old, new = mutation
    assert old in base
    config = write_config(tmp_path, base.replace(old, new))
    assert cli.main([str(config)]) == 2
    assert "floqlind: config error:" in capsys.readouterr().err


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


def _extract_config(tmp_path, rows):
    (tmp_path / "measured.txt").write_text(
        "\n".join(f"{p!r} {r!r}" for p, r in rows) + "\n", encoding="ascii"
    )
    return write_config(
        tmp_path,
        """
        [run]
        schema_version = 1
        scenario = extract-tauc
        output = fit.tsv
        input = measured.txt
        """,
    )


def test_main_reports_numeric_failures(tmp_path, capsys):
    config = _extract_config(tmp_path, [(5000.0, 0.5), (0.37, 0.9)])
    assert cli.main([str(config)]) == 3
    assert "floqlind: numeric failure:" in capsys.readouterr().err

    config = _extract_config(tmp_path, [(5000.0, 0.5), (0.37, 5e-10)])
    assert cli.main([str(config)]) == 3
    assert "floqlind: numeric failure:" in capsys.readouterr().err


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


def test_main_rejects_a_bloch_vector_outside_the_ball(tmp_path, capsys):
    outside = TRAJECTORY_CONFIG.replace("x1_0 = 0.0", "x1_0 = 0.8")
    config = write_config(tmp_path, outside)
    assert cli.main([str(config)]) == 2
    err = capsys.readouterr().err
    assert "floqlind: config error:" in err
    assert "Bloch vector" in err


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
