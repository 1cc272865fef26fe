"""Config-driven command line front end.

Runs are described by a single INI file and produce one tab-separated
table with a '#'-commented header that records the schema version, the
scenario, and every parameter as it was read, defaults included, so a
result file is sufficient to rerun the computation.  Every key must be
read: a key the scenario never reads (a misspelling, or a section it
does not use) is a config error, and no table is written.  Nothing
about a run depends on the environment; identical config and seed give
byte-identical output.

Sections:

  [run]     schema_version (must be 1), scenario, output, seed,
            rel_tol (trajectory and generator-audit only),
            input (extract-tauc only)
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

Cells follow the dtype of their column: a float prints as %.12e, an int
or str as it is.  The floats of a table are printed by numpy, in blocks
of rows laid out in one buffer each, and their bytes equal Python's
``b"%.12e" % value``.

Exit codes: 0 success, 2 malformed or incomplete config, or a value
outside its domain (a nonpositive bath parameter or rel_tol, a sweep
time before 0), 3 numeric failure (truncation, an invalid computed
state, inconsistent or out-of-range data, an overflow).  A table never
holds an inf or NaN cell: such a run exits 3, naming the scenario, the
column and the first bad row, and writes no table.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .bath import Lorentzian, PhononCutoff, _math_map
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
# Read by run() for header lines of their own, so never listed as config.
_HEADER_KEYS = ("run.schema_version", "run.scenario")


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not an integer") from None


def _parse_floats(raw: str, where: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{where} must be a list of numbers, got {raw!r}") from None
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return values


class _Reader:
    """Typed reads from a parsed config.

    Each read records ``section.key`` with the value as the table header
    prints it, so the header lists exactly what the run used, and the
    keys never read are known.  A ``default`` of None makes a key required.
    """

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.parser = parser
        self.resolved: dict[str, str] = {}

    def raw(self, section: str, key: str) -> str:
        """The text of a required key, not recorded."""
        if not self.parser.has_option(section, key):
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return self.parser.get(section, key)

    def _read(self, section, key, default, parse, show):
        if default is None or self.parser.has_option(section, key):
            value = parse(self.raw(section, key), f"[{section}] {key}")
        else:
            value = default
        self.resolved[f"{section}.{key}"] = show(value)
        return value

    def text(self, section: str, key: str, default: str | None = None) -> str:
        return self._read(section, key, default, lambda raw, _: raw, str)

    def float(self, section: str, key: str, default: float | None = None) -> float:
        return self._read(section, key, default, _parse_float, repr)

    def int(self, section: str, key: str, default: int | None = None) -> int:
        return self._read(section, key, default, _parse_int, str)

    def floats(self, section: str, key: str) -> list[float]:
        return self._read(
            section, key, None, _parse_floats, lambda vs: " ".join(map(repr, vs))
        )

    def reject_unread(self) -> None:
        read = {*self.resolved, *_HEADER_KEYS}
        # A [DEFAULT] key shows in every section; read in one, it is used.
        defaults = self.parser.defaults()
        used = {name.split(".", 1)[1] for name in read}
        unread = [f"[DEFAULT] {key}" for key in defaults if key not in used]
        unread += [
            f"[{section}] {key}"
            for section in self.parser.sections()
            for key in self.parser[section]
            if key not in defaults and f"{section}.{key}" not in read
        ]
        if unread:
            raise ConfigError("keys this scenario does not read: " + ", ".join(unread))


def _power_of_ten(exponent: float, cap: float) -> float:
    """libm's 10**exponent, or ``cap`` where that rounds past the largest double."""
    try:
        return pow(10.0, exponent)
    except OverflowError:
        return cap


def _sweep_grid(config: _Reader, expected: str) -> np.ndarray:
    parameter = config.text("sweep", "parameter")
    if parameter != expected:
        raise ConfigError(
            f"[sweep] parameter must be '{expected}' for this scenario, "
            f"got {parameter!r}"
        )
    start = config.float("sweep", "start")
    stop = config.float("sweep", "stop")
    points = config.int("sweep", "points")
    spacing = config.text("sweep", "spacing", "linear")
    if points < 1:
        raise ConfigError(f"[sweep] points must be at least 1, got {points}")
    if spacing == "linear":
        return np.linspace(start, stop, points)
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("[sweep] log spacing needs positive start and stop")
        # np.geomspace's power rounds differently at each numpy SIMD level;
        # libm's float power per interior point is the same on every host.
        # The endpoints are pinned, as in geomspace: 10**log10(stop) may overflow.
        exponents = np.linspace(math.log10(start), math.log10(stop), points)
        grid = np.full(points, stop)
        grid[0] = start
        try:
            grid[1:-1] = _math_map(functools.partial(pow, 10.0), exponents[1:-1])
        except OverflowError:  # stop is within rounding of the largest double
            grid[1:-1] = [_power_of_ten(e, stop) for e in exponents[1:-1].tolist()]
        return grid
    raise ConfigError(f"[sweep] spacing must be 'linear' or 'log', got {spacing!r}")


def _rates_parallel(config: _Reader, seed: int, base: Path):
    t2 = config.float("model", "t2")
    tau_c = config.float("model", "tau_c")
    density = Lorentzian(t2=t2, tau_c=tau_c)
    omegas = _sweep_grid(config, "omega")
    periods = 2.0 * math.pi / omegas
    etas = rate_parallel_closed(periods, t2, tau_c).eta
    return omegas, periods, etas, density.evaluate(omegas)


def _rates_perp(config: _Reader, seed: int, base: Path):
    coupling = config.float("model", "coupling")
    cutoff = config.float("model", "cutoff")
    density = PhononCutoff(coupling=coupling, cutoff=cutoff)
    omegas = _sweep_grid(config, "omega")
    return (
        omegas,
        rate_perp_closed(omegas, coupling, cutoff).eta,
        # One scalar call per Python float: its bits are libm's, which an
        # array call through numpy's exp, expm1 and power would not keep.
        _math_map(density.evaluate, omegas),
    )


def _longitudinal_model(config: _Reader):
    """Kicked two-level dephasing setup shared by trajectory and audit.

    Free precession at detuning delta, pi/2-angle kicks about axis 1,
    environment coupled through axis 3 scaled by 1/sqrt(2), Lorentzian
    spectral density.  Returns the model, its generator, the bath's
    (t2, tau_c) and delta.
    """
    t2 = config.float("model", "t2")
    tau_c = config.float("model", "tau_c")
    period = config.float("model", "period")
    delta = config.float("model", "delta", 0.0)
    strength = config.float("model", "strength", math.pi / 2.0)
    rel_tol = config.float("run", "rel_tol", 1e-8)
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
    return model, generator, (t2, tau_c), delta


def _trajectory(config: _Reader, seed: int, base: Path):
    model, generator, _, delta = _longitudinal_model(config)
    omega0 = config.float("model", "omega0")
    omega_ext = config.float("model", "omega_ext", omega0 - delta)
    x0 = [
        config.float("model", "x1_0", 0.0),
        config.float("model", "x2_0", 0.0),
        config.float("model", "x3_0", 1.0),
    ]
    frame = config.text("model", "frame", "lab")
    try:
        rho0 = density_from_bloch(x0)
    except InvalidStateError as exc:
        raise ConfigError(f"[model] initial Bloch vector: {exc}") from None
    times = _sweep_grid(config, "time")
    lab = omega_ext if frame == "lab" else None
    states = evolve(model, generator, rho0, times, frame=frame, omega_ext=lab)
    return (times, *states.bloch().T)


def _ensemble(config: _Reader):
    kind = config.text("ensemble", "kind")
    if kind == "gaussian":
        return GaussianDetuning(sigma=config.float("ensemble", "sigma"))
    if kind == "uniform":
        return UniformDetuning(halfwidth=config.float("ensemble", "halfwidth"))
    if kind == "discrete":
        return DiscreteDetuning(
            deltas=np.array(config.floats("ensemble", "deltas")),
            weights=np.array(config.floats("ensemble", "weights")),
        )
    raise ConfigError(
        f"[ensemble] kind must be gaussian, uniform, or discrete, got {kind!r}"
    )


def _echo(config: _Reader, seed: int, base: Path):
    t2 = config.float("model", "t2")
    tau_c = config.float("model", "tau_c")
    period = config.float("model", "period")
    omega0 = config.float("model", "omega0")
    delta = config.float("model", "delta", 0.0)
    omega_ext = config.float("model", "omega_ext", omega0 - delta)
    x0 = np.array(
        [config.float("model", "x1_0", 1.0), config.float("model", "x2_0", 0.0)]
    )
    ensemble = _ensemble(config)
    eta = rate_parallel_closed(period, t2, tau_c).eta
    params = TLSParams(
        omega0=omega0, omega_ext=omega_ext, period=period, eta=eta
    )
    times = _sweep_grid(config, "time")
    signal = echo_signal(ensemble, params, x0, times)
    return (times, signal.avg_cos, signal.avg_sin, *signal.transverse.T)


def _generator_audit(config: _Reader, seed: int, base: Path):
    model, generator, (t2, tau_c), _ = _longitudinal_model(config)
    eta_closed = rate_parallel_closed(model.period, t2, tau_c).eta
    eta_generator = -generator.floquet_superop[1, 1].real
    if eta_closed == 0.0:
        raise FloatingPointError(
            "generator-audit: eta_closed is 0 (underflow), so rel_residual "
            "is undefined; no table written"
        )
    rel_residual = abs(eta_generator - eta_closed) / eta_closed
    horizon = 5.0 / eta_closed
    if math.isinf(horizon):
        raise FloatingPointError(
            f"generator-audit: the audit times span 5/eta_closed, which "
            f"overflows at eta_closed = {eta_closed!r}; no table written"
        )
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, horizon, size=20)
    trace_defect = 0.0
    choi_min = math.inf
    for t in times:
        report = verify_cptp(semigroup(generator, t))
        trace_defect = max(trace_defect, report.trace_defect)
        choi_min = min(choi_min, report.choi_min_eig)
    rows = [
        ("eta_closed", eta_closed),
        ("eta_generator", eta_generator),
        ("rel_residual", rel_residual),
        ("tail_bound", generator.truncation.tail_bound),
        ("q_max_used", generator.truncation.q_max_used),
        ("trace_defect_max", trace_defect),
        ("choi_min_eig_min", choi_min),
    ]
    _require_finite("generator-audit", ("value",), [[value for _, value in rows]])
    # The one mixed column: the integer q_max_used prints as it is.
    return [name for name, _ in rows], [
        "%.12e" % value if isinstance(value, float) else str(value)
        for _, value in rows
    ]


def _extract_tauc(config: _Reader, seed: int, base: Path):
    path = Path(config.text("run", "input"))
    if not path.is_absolute():
        path = base / path
    measurements = read_rate_measurements(path)
    if len(measurements) != 2:  # the inversion would ignore any other row
        raise InconsistentDataError(
            f"need exactly two (period, rate) rows, got {len(measurements)}"
        )
    for row, (period, _) in enumerate(measurements, 1):
        if not period > 0.0:  # NaN too; an infinite slow period is the fit's limit
            raise InconsistentDataError(
                f"(period, rate) row {row}: the kick period must be > 0, "
                f"got {period!r}"
            )
    slow = max(measurements, key=lambda row: row[0])
    fast = min(measurements, key=lambda row: row[0])
    if slow[0] == fast[0]:
        raise InconsistentDataError("need two distinct kick periods")
    result = extract_tau_c(
        eta_slow=slow[1], eta_fast=fast[1], t_fast=fast[0]
    )
    return [result.t2], [result.tau_c], [result.residual], [int(result.degenerate)]


def _require_finite(scenario: str, names, columns) -> None:
    """Raise FloatingPointError at the first inf or NaN cell of the float
    columns, so that no table ever prints one."""
    for name, column in zip(names, columns):
        column = np.asarray(column)
        if column.dtype.kind == "f":
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                row = int(bad[0])
                raise FloatingPointError(
                    f"{scenario}: column {name} is {float(column[row])} in row "
                    f"{row + 1} of {len(column)}; no table written"
                )


# scenario -> (column names, columns from (reader, seed, config directory))
_SCENARIOS = {
    "rates-parallel": (("omega", "period", "eta_parallel", "gamma"), _rates_parallel),
    "rates-perp": (("omega", "eta_perp", "gamma"), _rates_perp),
    "trajectory": (("time", "x1", "x2", "x3"), _trajectory),
    "echo": (("time", "avg_cos", "avg_sin", "x1", "x2"), _echo),
    "generator-audit": (("quantity", "value"), _generator_audit),
    "extract-tauc": (("t2", "tau_c", "residual", "degenerate"), _extract_tauc),
}

_TAB, _NEWLINE = b"\t\n"  # byte values of the separators
# Table cells laid out at a time.  A block's buffer and temporaries, at
# most about 75 bytes a cell, stay in the malloc heap once freed, so this
# bounds the memory a table adds to the process.
_BLOCK_CELLS = 20_480
# A float cell is _SLOTS uint32 slots, 24 bytes: sign, lead digit and
# point; the twelve digits in three groups of four; the exponent in two
# slots, written as one uint64 whose last byte stays NUL for a table's
# separator.  A plus sign and the unused bytes of a slot are NUL, and the
# writer drops every NUL.
_SLOTS = 6
# Tables indexed by the lead digit (+11 if negative; a lead of 10 is a
# carry and prints 1), by 0..9999 and by the decimal exponent k + _EXP.
# _SCALES[k + _EXP] = 10^(12-k) is parsed, so correctly rounded; _EXP
# keeps every scale finite and covers the exponents of (1e-280, 1e280).
_EXP = 290
_HEADS = np.array(
    [sign + b"%d." % lead for sign in (b"\0", b"-") for lead in [*range(10), 1]], "S4"
).view(np.uint32)
_DIGITS = np.stack(  # every four digits, in the order of their values
    np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij",
                copy=False),
    axis=-1,
).view(np.uint32).ravel()
_EXPONENTS = np.array(
    [b"e%+03d" % k for k in range(-_EXP, _EXP + 1)], "S8"
).view(np.uint64)
_SCALES = np.array([float(f"1e{12 - k}") for k in range(-_EXP, _EXP + 1)])


def _scientific(values, cells=None) -> np.ndarray:
    """``b"%.12e" % v`` for every float v, NUL-padded: the bytes of
    ``cells``, uint32 of shape ``values.shape + (_SLOTS,)`` (new if None,
    else written in place), as an array shaped like ``values``.

    With e = floor(log10|v|), stepped once where the product leaves
    [1e12, 1e13), the 13 significant digits are the integer nearest
    m = |v| 10^(12-e); they are split into groups of four and printed
    through tables.  10^(12-e) is correctly rounded and m < 2^44, so m is
    within 1e13 2^-53 + 2^-10 < 2.2e-3 of the exact x = |v| 10^(12-e): one
    rounding in the power, one in the product.  Where |m - rint(m)| <
    0.495, x is within 0.4972 of the integer rint(m), so %e's correct
    rounding of x gives rint(m); the 0.005 left to a half-integer is more
    than twice the error bound, and a tie x (a half-integer) never passes.
    Other cells, zeros (-0.0 too) and magnitudes outside (1e-280, 1e280)
    are printed by ``%`` itself, about 1% of the cells of a table of
    arbitrary values.
    """
    values = np.asarray(values, dtype=float)
    if cells is None:
        cells = np.empty(values.shape + (_SLOTS,), np.uint32)
    magnitude = np.abs(values)
    fast = (magnitude > 1e-280) & (magnitude < 1e280)
    # Zeros and huge magnitudes get a stand-in in range; % prints them.
    np.minimum(np.maximum(magnitude, 1e-280, out=magnitude), 1e280, out=magnitude)
    exponent = np.log10(magnitude)
    exponent = np.floor(exponent, out=exponent).astype(np.intp)
    exponent += _EXP
    scaled = _SCALES[exponent] * magnitude
    exponent += scaled >= 1e13
    exponent -= scaled < 1e12
    np.multiply(_SCALES[exponent], magnitude, out=scaled)
    digits = np.rint(scaled, out=magnitude)
    scaled -= digits
    fast &= (np.abs(scaled, out=scaled) < 0.495) & (digits >= 1e12) & (digits <= 1e13)
    exponent += digits == 1e13  # 9.9999999999995 rounds up to 1.000000000000e+01
    digits += (values < 0.0) * 11e12  # the lead digit indexes _HEADS
    groups = scaled.view(np.intp)  # the digits as integers, in place
    groups[...] = digits
    del magnitude, digits  # freed before the cells are laid out
    # Clipped, a slow cell's indices stay in the tables; % rewrites it below.
    _EXPONENTS.take(exponent, out=cells[..., 4:].view(np.uint64)[..., 0], mode="clip")
    for slot in (3, 2, 1):  # floor division by a scalar is the fast one
        rest = groups // 10_000
        groups -= 10_000 * rest
        _DIGITS.take(groups, out=cells[..., slot], mode="clip")
        groups = rest
    _HEADS.take(groups, out=cells[..., 0], mode="clip")
    text = cells.view(f"S{4 * _SLOTS}")[..., 0]
    slow = ~fast
    # Taken also when empty, so the calls made do not depend on the data.
    text[slow] = [b"%.12e" % value for value in values[slow].tolist()]
    return text


def _table_block(columns, rows: slice, runs, texts, width: int) -> np.ndarray:
    """The cells of some rows of a table, one uint32 buffer: per cell
    ``width`` bytes, NUL-padded, its last byte the separator.
    _scientific formats each run of adjacent float columns in place."""
    cells = np.empty((len(columns[0][rows]), len(columns), width // 4), np.uint32)
    cells[:, :, _SLOTS:] = 0  # a float cell's padding, if any
    for run in runs:  # the values row by row, as the cells lie
        values = np.array([column[rows] for column in columns[run]]).T.copy()
        _scientific(values, cells[:, run, :_SLOTS])
    layout = cells.view(np.uint8)
    for j in texts:
        layout[:, j, :-1].view(f"S{width - 1}")[:, 0] = columns[j][rows]
    layout[:, :, -1] = _TAB
    layout[:, -1, -1] = _NEWLINE
    return cells


def _write_table(path: Path, scenario: str, names, columns, resolved) -> None:
    """Header, then one line per row.  A float cell prints as %.12e, an
    int or str cell as it is.  Every cell of a table has the same width:
    a float cell's _SLOTS slots, widened by whole uint64s where a text cell
    needs more.  Each block of rows is one buffer of cells, written with
    every NUL dropped."""
    header = [
        f"# schema_version = {SCHEMA_VERSION}",
        f"# scenario = {scenario}",
    ]
    for key in sorted(resolved):
        header.append(f"# config {key} = {resolved[key]}")
    header.append("# columns: " + " ".join(names) + "\n")
    header = "\n".join(header).encode("ascii")
    columns = [np.asarray(column) for column in columns]
    runs, texts, width = [], [], 4 * _SLOTS
    for j, column in enumerate(columns):
        if column.dtype.kind != "f":
            texts += [j]
            width = max(width, column.astype("S").itemsize + 1)
        elif runs and runs[-1].stop == j:
            runs[-1] = slice(runs[-1].start, j + 1)
        else:
            runs += [slice(j, j + 1)]
    width = -(-width // 8) * 8  # whole uint64s keep the exponents aligned
    step = _BLOCK_CELLS // len(columns) + 1  # rows per block, at least one
    with open(path, "wb") as handle:
        handle.write(header)
        for start in range(0, len(columns[0]), step):
            rows = slice(start, start + step)
            cells = _table_block(columns, rows, runs, texts, width)
            handle.write(cells.tobytes().translate(None, b"\0"))
            del cells  # freed before the next block is laid out


def run(config_path: Path) -> Path:
    """Execute the run described by an INI file, return the output path."""
    parser = configparser.ConfigParser()
    with open(config_path, encoding="utf-8") as handle:
        parser.read_file(handle)
    config = _Reader(parser)
    schema = config.raw("run", "schema_version")
    if schema.strip() != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {schema!r}; this build understands "
            f"{SCHEMA_VERSION}"
        )
    scenario = config.raw("run", "scenario")
    if scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of "
            + ", ".join(_SCENARIOS)
        )
    names, scenario_columns = _SCENARIOS[scenario]
    output = config.text("run", "output")
    seed = config.int("run", "seed", 0)
    base = config_path.resolve().parent
    out_path = Path(output)
    if not out_path.is_absolute():
        out_path = base / out_path

    # Overflow shows as an inf or NaN cell, which _require_finite reports
    # as a numeric failure; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns = scenario_columns(config, seed, base)
    config.reject_unread()
    _require_finite(scenario, names, columns)
    _write_table(out_path, scenario, names, columns, config.resolved)
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
