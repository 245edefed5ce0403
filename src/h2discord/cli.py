"""Configuration-driven experiment runner with CSV artifacts.

Configs are flat UTF-8 ``key=value`` files with ``#`` comments.
Coupling and rate values accept either an absolute number or a
multiple of the coupling scale written as ``0.5g``, ``2g`` or ``g``.
Reruns with an identical config produce byte-identical CSVs; the
run-metadata file additionally records wall time and is exempt from
that guarantee.
"""

import argparse
import math
import sys
import time
from collections import namedtuple
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import __version__
from .analysis import OBSERVABLES, PREDICATES, default_dt, \
    default_record_stride, default_t_end, fit_law, fit_period, \
    observables, run_discord_series
from .discord import DiscordPoint, SearchConfig
from .dynamics import MAX_SUBSTEPS, TAYLOR_THETA, SimConfig
from .errors import ConfigError, ConfigTypeError, MissingRequired, \
    SimulationError, UnknownKey
from .operators import ModelParams
from .statespace import INITIAL_COMPONENTS, JUMPS, MODE_CLOSURE, MODE_TABLE, \
    MOVES, RATES, GatingPolicy, StateSpace, generate_space, table_space

# A sweep kind runs a discord series once per sweep value, each on its own
# space: the keys a point sets to x g_up, the CSV of one row per point and
# its header, and the default sweep_values.
_Sweep = namedtuple("_Sweep", "swept csv header default_values")
_SWEEPS = {
    "sweep-g-omega": _Sweep(("g_omega",), "sweep_peak.csv",
                            "g_omega_over_g,peak_discord",
                            (0.1, 0.2, 0.5, 1.0)),
    "sweep-gamma": _Sweep(tuple(jump.decay for jump in JUMPS),
                          "sweep_peak.csv", "gamma_over_g,peak_discord",
                          (0.2, 0.5, 1.0, 2.0)),
    "period-law": _Sweep(("g_omega",), "sweep.csv",
                         "g_omega_over_g,fitted_period_s,rms_residual",
                         (0.01, 0.02, 0.05, 0.1, 0.2)),
}
SWEEPS = tuple(_SWEEPS)
KINDS = ("discord-series", *SWEEPS)
# the CSVs and plot scripts any kind writes at the top of its run directory
_ARTIFACTS = ("observables.csv", "discord.csv", "fit.csv", "rho.csv",
              "sweep.csv", "sweep_peak.csv", "law.csv", "plot_discord.py",
              "plot_observables.py", "plot_sweep.py")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

def parse_config(text: str) -> dict:
    """Flat key=value parser; returns {key: (raw value, line number)}."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigTypeError(f"line {lineno}: expected key=value, "
                                  f"got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigTypeError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigTypeError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


def _finite(value) -> float:
    """float(value), refusing nan and infinities like a malformed number."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number + 0.0  # -0 reads as 0, so no artifact holds -0.0


@dataclass(frozen=True)
class _Type:
    """A key type.  `parse(text, g)` raises ValueError, TypeError or
    KeyError on malformed text; values failing `ok` are rejected too."""
    what: str              # ends the message "key=text is not ..."
    parse: Callable
    ok: Callable = lambda value: True
    show: Callable = lambda value: value  # the run-metadata form


def _g_multiple(text, g):
    """A number, or a multiple of g written like 0.5g / 2g / g."""
    if text.endswith("g"):
        head = text[:-1].strip()
        return _finite((float(head) if head else 1.0) * g)
    return _finite(text)


def _int_at_least(low):
    return _Type(f"an integer >= {low}", lambda text, g: int(text),
                 lambda value: value >= low)


def _choice(*options):
    return _Type(f"one of {sorted(options)}", lambda text, g: text,
                 lambda value: value in options)


_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}

TEXT = _Type("non-empty text", lambda text, g: text, bool)
NUMBER = _Type("a finite number", lambda text, g: _finite(text))
POSITIVE = _Type("a positive finite number", NUMBER.parse,
                 lambda value: value > 0)
G_MULTIPLE = _Type("a nonnegative finite number or multiple of g",
                   _g_multiple, lambda value: value >= 0)
BOOL = _Type("a boolean", lambda text, g: _BOOLS[text.lower()])
NUMBERS = _Type(
    "a comma-separated list of nonnegative finite numbers",
    lambda text, g: tuple(_finite(part) for part in text.split(",")
                          if part.strip()),
    lambda values: all(v >= 0 for v in values),
    lambda values: ",".join(repr(v) for v in values))


@dataclass(frozen=True)
class Key:
    """One config key.

    `default` is config text, parsed like a given value, a rule (a
    function of the values of the keys above this one) or None for a
    required key.  run-metadata.txt records the key unless `recorded`
    is false.
    """
    name: str
    type: _Type
    default: object
    recorded: bool = True


def _field_key(cls, name: str, key_type: _Type) -> Key:
    """The key of a field of cls; its default is the field's."""
    return Key(name, key_type, str(getattr(cls, name)))


def _closed(params: ModelParams) -> bool:
    """No loss or influx channel: the period fit applies."""
    return not any(getattr(params, name) for name in RATES)


def _from_scale(rule):
    """A default drawn from the model's scales, given as rule(params,
    values); with every scale zero there is none to draw."""
    def default(v):
        params = _bind(ModelParams, v)
        if params.max_scale() == 0:
            couplings = ", ".join(move.strength for move in MOVES)
            raise ValueError(f"{couplings} and the rates are all zero")
        return rule(params, v)

    return default


KEYS = (
    Key("kind", _choice(*KINDS), None),
    Key("out", TEXT, lambda v: f"{v['kind']}-out", recorded=False),
    Key("g", POSITIVE, "1e7"),
    Key("g_up", G_MULTIPLE, "g"),
    Key("g_down", G_MULTIPLE, "g"),
    Key("g_omega", G_MULTIPLE, "0.5g"),
    Key("zeta", G_MULTIPLE, "g"),
    # a shorthand: the loss rates it defaults are recorded instead
    Key("gamma", G_MULTIPLE, "0", recorded=False),
    *(Key(jump.decay, G_MULTIPLE, lambda v: v["gamma"]) for jump in JUMPS),
    *(Key(jump.influx, G_MULTIPLE, "0") for jump in JUMPS),
    Key("space_mode", _choice(MODE_CLOSURE, MODE_TABLE), MODE_TABLE),
    Key("periods_factor", POSITIVE, "1.45"),
    Key("dt", POSITIVE, _from_scale(lambda params, v: default_dt(params))),
    Key("t_end", NUMBER, _from_scale(
        lambda params, v: default_t_end(params, v["periods_factor"]))),
    Key("record_stride", _int_at_least(1), _from_scale(
        lambda params, v: default_record_stride(params, v["dt"]))),
    _field_key(SearchConfig, "theta_points", _int_at_least(2)),
    _field_key(SearchConfig, "phi_points", _int_at_least(1)),
    Key("sweep_values", NUMBERS,
        lambda v: _SWEEPS[v["kind"]].default_values if v["kind"] in SWEEPS
        else ()),
    Key("dump_rho", BOOL, "false"),
)


@dataclass
class ExperimentConfig:
    kind: str
    out: str
    params: ModelParams
    space_mode: str
    sweep_values: tuple
    dump_rho: bool
    resolved: dict = field(default_factory=dict)
    # set by resolve_config: a series' record grid, search and space, a
    # sweep's (x, config) points
    sim: SimConfig = field(default=None, init=False)
    search: SearchConfig = field(default=None, init=False)
    space: StateSpace = field(default=None, init=False)
    points: list = field(default_factory=list, init=False)

    # the seeds, gates and decays closure mode closes over, and the record
    # grid, as perfbench's workload checks read them
    seeds = INITIAL_COMPONENTS
    gating = GatingPolicy()
    include_dissipation = True
    dt = property(lambda self: self.sim.dt)
    t_end = property(lambda self: self.sim.t_end)
    record_stride = property(lambda self: self.sim.record_stride)


def _value(key: Key, entry, v: dict):
    """The key's entry (raw text, line number) parsed, or its default."""
    if entry is None and key.default is None:
        raise MissingRequired(f"missing required key {key.name!r}")
    if entry is None and callable(key.default):
        try:
            return key.default(v)
        except ValueError as exc:
            raise ConfigTypeError(f"TypeError: {key.name} has no default "
                                  f"here ({exc}); give it") from None
    raw, lineno = entry or (key.default, None)
    try:
        value = key.type.parse(raw, v.get("g"))
        if key.type.ok(value):
            return value
    except (ValueError, TypeError, KeyError):
        pass
    raise ConfigTypeError(f"TypeError: {key.name}={raw!r}{_origin(lineno)} "
                          f"is not {key.type.what}")


def _origin(lineno) -> str:
    """Where an entry came from: a config line, or --override (line 0)."""
    return {None: "", 0: " (--override)"}.get(lineno, f" (line {lineno})")


def _bind(cls, v: dict, **given):
    """cls(**given), each other init field from the key of its name."""
    return cls(**given, **{f.name: v[f.name] for f in fields(cls)
                           if f.init and f.name not in given})


# the record grid keys, whose defaults read the model: a sweep leaves
# those its config does not give to each point; a period law takes none
_GRID = ("dt", "t_end", "record_stride")


def _check(v: dict, params: ModelParams, given, swept):
    """The rules that tie keys together; `given` names the keys set, and
    `swept` those a sweep kind sets at each point."""
    kind = v["kind"]
    sweep = v["sweep_values"]
    if kind in SWEEPS and not sweep:
        raise ConfigTypeError(f"TypeError: {kind} needs sweep_values")
    if kind not in SWEEPS and sweep:
        raise ConfigTypeError(f"TypeError: {kind} takes no sweep_values: "
                              "it sweeps nothing")
    if kind == "period-law" and not all(0 < x <= 1 for x in sweep):
        raise ConfigTypeError("TypeError: period-law sweep_values must lie "
                              "in (0, 1]")
    if kind in SWEEPS and len(set(sweep)) < len(sweep):
        raise ConfigTypeError("TypeError: sweep_values repeats a value")
    # gamma only sets the defaults of the decays sweep-gamma sweeps
    for name in (*swept, "gamma") if kind == "sweep-gamma" else swept:
        if name in given:
            raise ConfigTypeError(
                f"TypeError: {kind} takes no {name}{_origin(given[name][1])}"
                f": each sweep point sets {', '.join(swept)} to x g_up")
    if params.g_up == 0 and kind in SWEEPS:
        raise ConfigTypeError(f"TypeError: {kind} needs a positive g_up; "
                              "sweep_values are in units of g_up")
    fixed = [name for name in _GRID if name in given]
    if kind == "period-law" and fixed:
        raise ConfigTypeError(f"TypeError: period-law takes no {fixed[0]}: "
                              "each sweep point runs on the default record "
                              "grid of its own model")
    if kind == "period-law" and not _closed(params):
        rates = ", ".join(name for name in RATES if v[name])
        raise ConfigTypeError(f"TypeError: period-law takes no loss or "
                              f"influx rate, got {rates}: the law is fitted "
                              "on closed runs")


def resolve_config(entries: dict) -> ExperimentConfig:
    """Validate raw entries {key: (raw text, line number)}, fill
    defaults, and bind everything; a sweep binds what its points share."""
    unknown = sorted(set(entries) - {key.name for key in KEYS})
    if unknown:
        raise UnknownKey(f"unknown key {unknown[0]!r}"
                         f"{_origin(entries[unknown[0]][1])}")

    v = {}
    for key in KEYS:
        if key.name in entries or key.name not in _GRID \
                or v["kind"] not in SWEEPS:
            v[key.name] = _value(key, entries.get(key.name), v)
    params = _bind(ModelParams, v)
    swept = _SWEEPS[v["kind"]].swept if v["kind"] in SWEEPS else ()
    _check(v, params, entries, swept)
    # a sweep's record leaves out the keys it sweeps; each point's has them
    resolved = {key.name: key.type.show(v[key.name]) for key in KEYS
                if key.recorded and key.name in v and key.name not in swept}
    config = _bind(ExperimentConfig, v, params=params, resolved=resolved)
    if config.kind in SWEEPS:
        config.points = _sweep_points(config, entries)
        return config
    try:  # SimConfig and SearchConfig hold the rules of their grids
        config.sim, config.search = _bind(SimConfig, v), _bind(SearchConfig, v)
    except ValueError as exc:
        raise ConfigTypeError(f"TypeError: {exc}") from None
    # each move gives a state at most one partner and each a^dagger a is
    # 0/1 diagonal, so ||L||_1 <= 2 (the sum of the couplings and rates)
    substeps = 2 * sum(astuple(params)) * config.t_end / TAYLOR_THETA
    if not _closed(params) and substeps > MAX_SUBSTEPS:
        rates = ", ".join(name for name in RATES if v[name])
        raise ConfigTypeError(f"TypeError: {rates} and t_end="
                              f"{config.t_end!r} may take {substeps:.3g} "
                              f"Taylor substeps, more than {MAX_SUBSTEPS}; "
                              "lower the rates or t_end")
    config.space = _build_space(config)
    return config


def _sweep_points(config: ExperimentConfig, entries: dict) -> list:
    """(x, the discord-series config of that point) per sweep value: the
    sweep's entries, each with its origin, less sweep_values and with
    the swept keys set to x g_up.  A point's config error names it."""
    shared = {**entries, "kind": ("discord-series", None)}
    shared.pop("sweep_values", None)
    points = []
    for x in sorted(config.sweep_values):
        at_x = dict.fromkeys(_SWEEPS[config.kind].swept,
                             (repr(x * config.params.g_up), None))
        try:
            points.append((x, resolve_config({**shared, **at_x})))
        except ConfigError as exc:
            raise type(exc)(f"{_point_dir(config.kind, x)}: {exc}") from None
    return points


def _point_dir(kind: str, x: float) -> str:
    """The run directory of a sweep point, under the sweep's own."""
    return f"{_SWEEPS[kind].header.split(',')[0]}={x!r}"


def _build_space(config: ExperimentConfig):
    """The space every command uses: the 26-state table in table-compat
    mode, in closure mode the initial state's exact reachable space,
    closed under the moves, every decay and each positive influx."""
    if config.space_mode == MODE_TABLE:
        return table_space()
    return generate_space(INITIAL_COMPONENTS, config.params)


def _csv(header, rows):
    """A CSV's lines, each row formed as it is written."""
    yield header
    for row in rows:
        yield ",".join(repr(float(x)) for x in row)


def _rho_rows(traj):
    """rho.csv: t, re(rho_ij) row-major, im(rho_ij) row-major."""
    n = traj.space.size
    header = ["t"] + [f"{part}_rho_{i}_{j}" for part in ("re", "im")
                      for i in range(n) for j in range(n)]
    rows = ([t, *rho.real.ravel(), *rho.imag.ravel()]
            for t, rho in zip(traj.times, traj.snapshots))
    return ",".join(header), rows


_PLOT_SERIES = """\
import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt({csv!r}, delimiter=",", names=True)
fig, ax = plt.subplots()
for column in {columns!r}:
    ax.plot(data["t"], data[column], label=column)
ax.set_xlabel("t [s]")
ax.legend()
fig.savefig({png!r}, dpi=150)
"""

_PLOT_SWEEP = """\
import os

import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt({csv!r}, delimiter=",", names=True)
x = data[{xcol!r}]
y = data[{ycol!r}]
fig, ax = plt.subplots()
ax.plot(x, y, "+", markersize=12)
if os.path.exists("law.csv"):  # a period law: T = c / x
    c = np.genfromtxt("law.csv", delimiter=",", names=True)["c_seconds"]
    grid = np.linspace(x.min(), x.max(), 200)
    ax.plot(grid, c / grid, "-")
ax.set_xlabel({xcol!r})
ax.set_ylabel({ycol!r})
fig.savefig({png!r}, dpi=150)
"""


def run(config: ExperimentConfig, out_dir=None) -> list:
    """Execute the experiment and write its artifacts; returns the paths."""
    return _run(config, Path(out_dir or config.out))[0]


def _run(config: ExperimentConfig, out: Path) -> tuple:
    """run() into `out`: (the paths written, and for a discord series its
    records and what `_discord_artifacts` returns)."""
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    written = []
    notes = {}
    points, fit = None, None

    def emit(name, lines):
        path = out / name
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        written.append(path)

    # a rerun into this directory leaves no artifact this run does not write
    for name in _ARTIFACTS:
        (out / name).unlink(missing_ok=True)
    kind = config.kind
    if kind == "discord-series":
        traj, points = _run_series(config)
        notes.update(min_eigenvalue=traj.min_eigenvalue,
                     min_eigenvalue_t=traj.min_eigenvalue_t,
                     max_trace_drift=traj.max_trace_drift,
                     max_hermiticity_error=traj.max_hermiticity_error)
        emit("observables.csv",
             _csv(",".join(OBSERVABLES), observables(traj)))
        if config.dump_rho:
            emit("rho.csv", _csv(*_rho_rows(traj)))
        fit = _discord_artifacts(config, points, notes, emit)
        emit("plot_discord.py", [_PLOT_SERIES.format(
            csv="discord.csv", columns=["D", "I", "J"], png="discord.png")])
        emit("plot_observables.py", [_PLOT_SERIES.format(
            csv="observables.csv", png="observables.png",
            columns=[f"pop_{name}" for name in PREDICATES
                     if name.startswith("photons")])])
    else:
        law = kind == "period-law"
        sweep = _SWEEPS[kind]
        xcol, ycol = sweep.header.split(",")[:2]
        rows = []
        for x, point in config.points:
            where = _point_dir(kind, x)
            try:
                paths, records, point_fit = _run(point, out / where)
                if law and isinstance(point_fit, SimulationError):
                    raise point_fit
            except SimulationError as exc:
                raise type(exc)(f"{where}: {exc}") from None
            written += paths
            rows.append([x, point_fit.period, point_fit.rms_residual] if law
                        else [x, max(pt.discord for pt in records)])
        emit(sweep.csv, _csv(sweep.header, rows))
        if law:
            constant, residual = fit_law([row[:2] for row in rows])
            emit("law.csv", _csv("c_seconds,residual", [[constant, residual]]))
            notes.update(fit_on_envelope=config.params.zeta > 0,
                         constant_c=constant)
        emit("plot_sweep.py", [_PLOT_SWEEP.format(
            csv=sweep.csv, xcol=xcol, ycol=ycol,
            png=sweep.csv.replace(".csv", ".png"))])

    meta = dict(config.resolved)
    meta.update(notes)
    meta["version"] = __version__
    meta["wall_time_s"] = round(time.perf_counter() - started, 3)
    emit("run-metadata.txt", [f"{key}={meta[key]}" for key in sorted(meta)])
    return written, points, fit


def _discord_artifacts(config, points, notes, emit):
    """discord.csv, and for a closed run fit.csv, the fit of its slow
    period; returns that fit, None for an open run, or the
    SimulationError that stopped the fit."""
    notes["discord_pure_snapshots"] = \
        f"{sum(pt.pure for pt in points)}/{len(points)}"
    mixed = [pt for pt in points if not pt.pure]
    notes["discord_grid_fallbacks"] = \
        f"{sum(pt.full_grid for pt in mixed)}/{len(mixed)}"
    notes["discord_refine_moves"] = \
        f"{sum(pt.refine_moved for pt in mixed)}/{len(mixed)}"
    emit("discord.csv", _csv(DiscordPoint.CSV_HEADER,
                             (pt.row() for pt in points)))
    params = config.params
    if not _closed(params):
        # the decaying open-system discord has no sensible sinusoid fit
        notes["fit_skipped"] = "open-system run"
        return None
    notes["fit_on_envelope"] = params.zeta > 0
    try:
        fit, window = fit_period([pt.t for pt in points],
                                 [pt.discord for pt in points], params.zeta,
                                 params.g_up)
    except SimulationError as exc:
        notes["fit_error"] = f"{type(exc).__name__}: {exc}"
        return exc
    if window:
        notes["envelope_window"] = window
    emit("fit.csv", _csv(",".join(f.name for f in fields(fit)),
                         [astuple(fit)]))
    return fit


def _run_series(config: ExperimentConfig):
    return run_discord_series(config.params, config.sim, space=config.space,
                              search=config.search)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="h2discord",
        description="Photon-matter model simulator and discord analyzer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "dump-space"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out")
        p.add_argument("--override", action="append", default=[],
                       metavar="key=value")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            entries = parse_config(fh.read())
        for item in args.override:
            if "=" not in item:
                raise ConfigTypeError(f"override {item!r} is not key=value")
            key, value = item.split("=", 1)
            entries[key.strip()] = (value.strip(), 0)
        if args.out is not None:
            entries["out"] = (args.out, None)
        config = resolve_config(entries)
        if args.command == "validate":
            for key in sorted(config.resolved):
                print(f"{key}={config.resolved[key]}")
            return EXIT_OK
        if args.command == "dump-space":
            # a sweep's points, each on its own space
            lines = config.space.dump_lines() if config.space else [
                line for x, point in config.points
                for line in (f"# {_point_dir(config.kind, x)}",
                             *point.space.dump_lines())]
            sys.stdout.write("\n".join(lines) + "\n")
            return EXIT_OK
        written = run(config)
        for path in written:
            print(path)
        return EXIT_OK
    except (ConfigError, UnicodeDecodeError) as exc:  # configs are UTF-8
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
