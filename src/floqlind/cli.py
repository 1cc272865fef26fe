"""Config-driven command line front end.

Runs are described by a single INI file and produce one tab-separated
table with a '#'-commented header that records the schema version, the
scenario, and every resolved parameter, so a result file is sufficient
to rerun the computation.  Nothing about a run depends on the
environment; identical config and seed give byte-identical output.

Sections:

  [run]     schema_version (must be 1), scenario, output, seed,
            rel_tol, input (extract-tauc only)
  [model]   scenario-specific physical parameters
  [sweep]   parameter, start, stop, points, spacing (linear | log)
  [ensemble] echo only: kind = gaussian | uniform | discrete plus
            sigma / halfwidth / deltas, weights

Scenarios and their columns:

  rates-parallel   omega period eta_parallel gamma
  rates-perp       omega eta_perp gamma
  trajectory       time x1 x2 x3
  echo             time avg_cos avg_sin x1 x2
  generator-audit  quantity value
  extract-tauc     t2 tau_c residual degenerate

Exit codes: 0 success, 2 malformed or incomplete config, 3 numeric
failure (truncation, stability, an invalid computed state, inconsistent
or out-of-range data).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from .bath import Lorentzian, PhononCutoff
from .dynamics import TLSParams, evolve
from .echo import (
    DiscreteDetuning,
    GaussianDetuning,
    UniformDetuning,
    echo_signal,
    extract_tau_c,
    read_rate_measurements,
)
from .errors import (
    ConfigError,
    InconsistentDataError,
    InvalidStateError,
    OutOfRangeError,
    StabilityError,
    TruncationError,
)
from .floquet import KickedModel, harmonic_decomposition
from .lindblad import (
    build_generator,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
    verify_cptp,
)
from .operators import PAULI_X, PAULI_Z, density_from_bloch

SCHEMA_VERSION = 1

_COLUMNS = {
    "rates-parallel": ("omega", "period", "eta_parallel", "gamma"),
    "rates-perp": ("omega", "eta_perp", "gamma"),
    "trajectory": ("time", "x1", "x2", "x3"),
    "echo": ("time", "avg_cos", "avg_sin", "x1", "x2"),
    "generator-audit": ("quantity", "value"),
    "extract-tauc": ("t2", "tau_c", "residual", "degenerate"),
}
_SCENARIOS = tuple(_COLUMNS)


def _require(cfg: configparser.ConfigParser, section: str, key: str) -> str:
    if not cfg.has_option(section, key):
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return cfg.get(section, key)


def _float(cfg: configparser.ConfigParser, section: str, key: str) -> float:
    raw = _require(cfg, section, key)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _float_default(
    cfg: configparser.ConfigParser, section: str, key: str, default: float
) -> float:
    if not cfg.has_option(section, key):
        return default
    return _float(cfg, section, key)


def _int(cfg: configparser.ConfigParser, section: str, key: str, default: int) -> int:
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not an integer"
        ) from None


def _float_list(raw: str, context: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{context} must be a list of numbers, got {raw!r}") from None
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"{context} must be finite, got {raw!r}")
    return values


def _sweep_grid(
    cfg: configparser.ConfigParser, expected: str, resolved: dict[str, str]
) -> np.ndarray:
    if not cfg.has_section("sweep"):
        raise ConfigError("missing [sweep] section")
    parameter = _require(cfg, "sweep", "parameter")
    if parameter != expected:
        raise ConfigError(
            f"[sweep] parameter must be '{expected}' for this scenario, "
            f"got {parameter!r}"
        )
    start = _float(cfg, "sweep", "start")
    stop = _float(cfg, "sweep", "stop")
    points = _int(cfg, "sweep", "points", 0)
    spacing = cfg.get("sweep", "spacing", fallback="linear")
    if points < 1:
        raise ConfigError(f"[sweep] points must be at least 1, got {points}")
    if spacing == "linear":
        grid = np.linspace(start, stop, points)
    elif spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("[sweep] log spacing needs positive start and stop")
        grid = np.geomspace(start, stop, points)
    else:
        raise ConfigError(
            f"[sweep] spacing must be 'linear' or 'log', got {spacing!r}"
        )
    resolved["sweep.parameter"] = parameter
    resolved["sweep.start"] = repr(start)
    resolved["sweep.stop"] = repr(stop)
    resolved["sweep.points"] = str(points)
    resolved["sweep.spacing"] = spacing
    return grid


def _scenario_rates_parallel(cfg, resolved):
    t2 = _float(cfg, "model", "t2")
    tau_c = _float(cfg, "model", "tau_c")
    resolved["model.t2"] = repr(t2)
    resolved["model.tau_c"] = repr(tau_c)
    density = Lorentzian(t2=t2, tau_c=tau_c)
    omegas = _sweep_grid(cfg, "omega", resolved)

    rows = []
    for omega in omegas:
        period = 2.0 * math.pi / omega
        eta = rate_parallel_closed(period, t2, tau_c).eta
        rows.append((omega, period, eta, density.evaluate(omega)))
    return rows


def _scenario_rates_perp(cfg, resolved):
    coupling = _float(cfg, "model", "coupling")
    cutoff = _float(cfg, "model", "cutoff")
    resolved["model.coupling"] = repr(coupling)
    resolved["model.cutoff"] = repr(cutoff)
    density = PhononCutoff(coupling=coupling, cutoff=cutoff)
    omegas = _sweep_grid(cfg, "omega", resolved)

    return [
        (omega, rate_perp_closed(omega, coupling, cutoff).eta, density.evaluate(omega))
        for omega in omegas
    ]


def _longitudinal_model(cfg, resolved):
    """Kicked two-level dephasing setup shared by trajectory and audit.

    Free precession at detuning delta, pi/2-angle kicks about axis 1,
    environment coupled through axis 3 scaled by 1/sqrt(2), Lorentzian
    spectral density.
    """
    t2 = _float(cfg, "model", "t2")
    tau_c = _float(cfg, "model", "tau_c")
    period = _float(cfg, "model", "period")
    delta = _float_default(cfg, "model", "delta", 0.0)
    strength = _float_default(cfg, "model", "strength", math.pi / 2.0)
    rel_tol = _float_default(cfg, "run", "rel_tol", 1e-8)
    resolved["model.t2"] = repr(t2)
    resolved["model.tau_c"] = repr(tau_c)
    resolved["model.period"] = repr(period)
    resolved["model.delta"] = repr(delta)
    resolved["model.strength"] = repr(strength)
    resolved["run.rel_tol"] = repr(rel_tol)
    model = KickedModel(
        h0=0.5 * delta * PAULI_Z,
        kick=PAULI_X,
        strength=strength,
        period=period,
    )
    harmonics = harmonic_decomposition(
        model, (PAULI_Z / math.sqrt(2.0),), q_max=64
    )
    generator = build_generator(
        harmonics, (Lorentzian(t2=t2, tau_c=tau_c),), rel_tol=rel_tol
    )
    eta = rate_parallel_closed(period, t2, tau_c).eta
    return model, generator, eta, delta


def _scenario_trajectory(cfg, resolved):
    model, generator, eta, delta = _longitudinal_model(cfg, resolved)
    omega0 = _float(cfg, "model", "omega0")
    omega_ext = _float_default(cfg, "model", "omega_ext", omega0 - delta)
    x0 = [
        _float_default(cfg, "model", "x1_0", 0.0),
        _float_default(cfg, "model", "x2_0", 0.0),
        _float_default(cfg, "model", "x3_0", 1.0),
    ]
    frame = cfg.get("model", "frame", fallback="lab")
    resolved["model.omega0"] = repr(omega0)
    resolved["model.omega_ext"] = repr(omega_ext)
    resolved["model.x1_0"] = repr(x0[0])
    resolved["model.x2_0"] = repr(x0[1])
    resolved["model.x3_0"] = repr(x0[2])
    resolved["model.frame"] = frame
    try:
        rho0 = density_from_bloch(x0)
    except InvalidStateError as exc:
        raise ConfigError(f"[model] initial Bloch vector: {exc}") from None
    times = _sweep_grid(cfg, "time", resolved)
    trajectory = evolve(
        model,
        generator,
        rho0,
        times,
        frame=frame,
        omega_ext=omega_ext if frame == "lab" else None,
    )
    bloch = trajectory.bloch()
    return [
        (t, bloch[i, 0], bloch[i, 1], bloch[i, 2]) for i, t in enumerate(times)
    ]


def _build_ensemble(cfg, seed: int, resolved):
    if not cfg.has_section("ensemble"):
        raise ConfigError("missing [ensemble] section for echo scenario")
    kind = _require(cfg, "ensemble", "kind")
    resolved["ensemble.kind"] = kind
    if kind == "gaussian":
        sigma = _float(cfg, "ensemble", "sigma")
        resolved["ensemble.sigma"] = repr(sigma)
        return GaussianDetuning(sigma=sigma, seed=seed)
    if kind == "uniform":
        halfwidth = _float(cfg, "ensemble", "halfwidth")
        resolved["ensemble.halfwidth"] = repr(halfwidth)
        return UniformDetuning(halfwidth=halfwidth, seed=seed)
    if kind == "discrete":
        deltas = _float_list(
            _require(cfg, "ensemble", "deltas"), "[ensemble] deltas"
        )
        weights = _float_list(
            _require(cfg, "ensemble", "weights"), "[ensemble] weights"
        )
        resolved["ensemble.deltas"] = " ".join(repr(d) for d in deltas)
        resolved["ensemble.weights"] = " ".join(repr(w) for w in weights)
        return DiscreteDetuning(
            deltas=np.array(deltas), weights=np.array(weights), seed=seed
        )
    raise ConfigError(
        f"[ensemble] kind must be gaussian, uniform, or discrete, got {kind!r}"
    )


def _scenario_echo(cfg, seed: int, resolved):
    t2 = _float(cfg, "model", "t2")
    tau_c = _float(cfg, "model", "tau_c")
    period = _float(cfg, "model", "period")
    omega0 = _float(cfg, "model", "omega0")
    delta = _float_default(cfg, "model", "delta", 0.0)
    omega_ext = _float_default(cfg, "model", "omega_ext", omega0 - delta)
    x1_0 = _float_default(cfg, "model", "x1_0", 1.0)
    x2_0 = _float_default(cfg, "model", "x2_0", 0.0)
    for key, value in (
        ("model.t2", t2),
        ("model.tau_c", tau_c),
        ("model.period", period),
        ("model.omega0", omega0),
        ("model.delta", delta),
        ("model.omega_ext", omega_ext),
        ("model.x1_0", x1_0),
        ("model.x2_0", x2_0),
    ):
        resolved[key] = repr(value)
    ensemble = _build_ensemble(cfg, seed, resolved)
    eta = rate_parallel_closed(period, t2, tau_c).eta
    params = TLSParams(
        omega0=omega0, omega_ext=omega_ext, period=period, eta=eta
    )
    times = _sweep_grid(cfg, "time", resolved)
    signal = echo_signal(ensemble, params, np.array([x1_0, x2_0]), times)
    return [
        (
            t,
            signal.avg_cos[i],
            signal.avg_sin[i],
            signal.transverse[i, 0],
            signal.transverse[i, 1],
        )
        for i, t in enumerate(times)
    ]


def _scenario_generator_audit(cfg, seed: int, resolved):
    _, generator, eta_closed, _ = _longitudinal_model(cfg, resolved)
    eta_generator = -generator.floquet_superop()[1, 1].real
    rel_residual = abs(eta_generator - eta_closed) / eta_closed
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 5.0 / eta_closed, size=20)
    trace_defect = 0.0
    choi_min = math.inf
    for t in times:
        report = verify_cptp(semigroup(generator, t))
        trace_defect = max(trace_defect, report.trace_defect)
        choi_min = min(choi_min, report.choi_min_eig)
    return [
        ("eta_closed", eta_closed),
        ("eta_generator", eta_generator),
        ("rel_residual", rel_residual),
        ("tail_bound", generator.truncation.tail_bound),
        ("q_max_used", generator.truncation.q_max_used),
        ("trace_defect_max", trace_defect),
        ("choi_min_eig_min", choi_min),
    ]


def _scenario_extract_tauc(cfg, base: Path, resolved):
    raw = _require(cfg, "run", "input")
    path = Path(raw)
    if not path.is_absolute():
        path = base / path
    resolved["run.input"] = raw
    measurements = read_rate_measurements(path)
    if len(measurements) < 2:
        raise InconsistentDataError(
            f"need at least two (period, rate) rows, got {len(measurements)}"
        )
    slow = max(measurements, key=lambda row: row[0])
    fast = min(measurements, key=lambda row: row[0])
    if slow[0] == fast[0]:
        raise InconsistentDataError("need two distinct kick periods")
    result = extract_tau_c(
        eta_slow=slow[1], eta_fast=fast[1], t_fast=fast[0]
    )
    return [
        (result.t2, result.tau_c, result.residual, int(result.degenerate))
    ]


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "%d" % int(value)
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.12e" % value


def _write_table(path: Path, scenario: str, rows, resolved: dict[str, str]) -> None:
    lines = [
        f"# schema_version = {SCHEMA_VERSION}",
        f"# scenario = {scenario}",
    ]
    for key in sorted(resolved):
        lines.append(f"# config {key} = {resolved[key]}")
    lines.append("# columns: " + " ".join(_COLUMNS[scenario]))
    for row in rows:
        lines.append("\t".join(_format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def run(config_path: Path) -> Path:
    """Execute the run described by an INI file, return the output path."""
    cfg = configparser.ConfigParser()
    with open(config_path, encoding="utf-8") as handle:
        cfg.read_file(handle)
    schema = _require(cfg, "run", "schema_version")
    if schema.strip() != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {schema!r}; this build understands "
            f"{SCHEMA_VERSION}"
        )
    scenario = _require(cfg, "run", "scenario")
    if scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of "
            + ", ".join(_SCENARIOS)
        )
    output = _require(cfg, "run", "output")
    seed = _int(cfg, "run", "seed", 0)
    base = config_path.resolve().parent
    out_path = Path(output)
    if not out_path.is_absolute():
        out_path = base / out_path

    resolved: dict[str, str] = {"run.seed": str(seed), "run.output": output}
    if scenario == "rates-parallel":
        rows = _scenario_rates_parallel(cfg, resolved)
    elif scenario == "rates-perp":
        rows = _scenario_rates_perp(cfg, resolved)
    elif scenario == "trajectory":
        rows = _scenario_trajectory(cfg, resolved)
    elif scenario == "echo":
        rows = _scenario_echo(cfg, seed, resolved)
    elif scenario == "generator-audit":
        rows = _scenario_generator_audit(cfg, seed, resolved)
    else:
        rows = _scenario_extract_tauc(cfg, base, resolved)

    _write_table(out_path, scenario, rows, resolved)
    return out_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="floqlind",
        description="Floquet-Lindblad rates, trajectories, and echo tables "
        "driven by an INI config.",
    )
    parser.add_argument("config", type=Path, help="path to the INI run file")
    args = parser.parse_args(argv)
    try:
        out_path = run(args.config)
    except (
        TruncationError,
        StabilityError,
        ArithmeticError,
        InconsistentDataError,
        InvalidStateError,
        OutOfRangeError,
    ) as exc:
        print(f"floqlind: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, configparser.Error, ValueError, OSError) as exc:
        print(f"floqlind: config error: {exc}", file=sys.stderr)
        return 2
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
