"""Configuration-driven experiment runner with CSV artifacts.

Configs are flat UTF-8 ``key=value`` files with ``#`` comments.
Coupling, rate and frequency values accept either an absolute number
or a multiple of the coupling scale written as ``0.5g``, ``2g`` or
``g``.  Reruns with an identical config produce byte-identical CSVs;
the run-metadata file additionally records wall time and is exempt
from that guarantee.
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import default_dt, envelope, fit_sinusoid, period_law, \
    population, run_discord_series, state_population
from .discord import DiscordPoint, SearchConfig
from .dynamics import SimConfig
from .errors import ConfigError, ConfigTypeError, MissingRequired, \
    SimulationError, UnknownKey
from .operators import ModelParams
from .statespace import INITIAL_COMPONENTS, BasisState, GatingPolicy, \
    full_space, generate_space, table_space

KINDS = ("evolve-closed", "evolve-open", "discord-series", "sweep-g-omega",
         "sweep-gamma", "period-law", "generate-space")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_VACUUM = BasisState.from_string("0000000")


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
    return number


class _Resolver:
    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def take(self, key: str, default=None):
        if key in self.entries:
            value, lineno = self.entries.pop(key)
            return value, lineno
        return default, None

    def _convert(self, key, raw, lineno, conv, what):
        try:
            return conv(raw)
        except (ValueError, TypeError, KeyError):
            where = f" (line {lineno})" if lineno else ""
            raise ConfigTypeError(
                f"TypeError: {key}={raw!r}{where} is not {what}") from None

    def floatval(self, key, default=None):
        raw, lineno = self.take(key)
        if raw is None:
            return default
        return self._convert(key, raw, lineno, _finite, "a finite number")

    def relfloat(self, key, g, default=None):
        """A number, or a multiple of g written like 0.5g / 2g / g."""
        raw, lineno = self.take(key)
        if raw is None:
            return default

        def conv(text):
            text = text.strip()
            if text.endswith("g"):
                head = text[:-1].strip()
                factor = 1.0 if not head else float(head)
                return _finite(factor * g)
            return _finite(text)

        value = self._convert(key, raw, lineno, conv,
                              "a finite number or a multiple of g")
        if value < 0:
            raise ConfigTypeError(f"TypeError: {key} must be nonnegative")
        return value

    def intval(self, key, default=None, minimum=None):
        raw, lineno = self.take(key)
        if raw is None:
            return default
        value = self._convert(key, raw, lineno, int, "an integer")
        if minimum is not None and value < minimum:
            raise ConfigTypeError(f"TypeError: {key} must be >= {minimum}")
        return value

    def boolval(self, key, default=None):
        raw, lineno = self.take(key)
        if raw is None:
            return default
        mapping = {"true": True, "yes": True, "1": True, "on": True,
                   "false": False, "no": False, "0": False, "off": False}

        def conv(text):
            return mapping[text.lower()]

        return self._convert(key, raw, lineno, conv, "a boolean")

    def strval(self, key, default=None, choices=None):
        raw, lineno = self.take(key)
        if raw is None:
            return default
        if choices and raw not in choices:
            where = f" (line {lineno})" if lineno else ""
            raise ConfigTypeError(f"TypeError: {key}={raw!r}{where} "
                                  f"not one of {sorted(choices)}")
        return raw

    def floatlist(self, key, default=None):
        raw, lineno = self.take(key)
        if raw is None:
            return default

        def conv(text):
            return tuple(_finite(part) for part in text.split(",")
                         if part.strip())

        return self._convert(key, raw, lineno, conv,
                             "a comma-separated list of finite numbers")

    def reject_unknown(self):
        if self.entries:
            key, (_, lineno) = sorted(self.entries.items())[0]
            raise UnknownKey(f"unknown key {key!r} (line {lineno})")


@dataclass
class ExperimentConfig:
    kind: str
    out: str
    params: ModelParams
    gating: GatingPolicy
    space_mode: str
    dt: float
    t_end: float
    record_stride: int
    renormalize_trace: bool
    search: SearchConfig
    discord_stride: int
    sweep_values: tuple
    envelope_window: int
    periods_factor: float
    seeds: tuple
    include_dissipation: bool
    dump_rho: bool
    dump_operators: bool
    hbar: float
    resolved: dict = field(default_factory=dict)


_SWEEP_DEFAULTS = {"period-law": (0.01, 0.02, 0.05, 0.1, 0.2),
                   "sweep-g-omega": (0.1, 0.2, 0.5, 1.0),
                   "sweep-gamma": (0.2, 0.5, 1.0, 2.0)}


def _closed(params: ModelParams) -> bool:
    """No loss channel: the fit and the auto envelope window apply."""
    return params.gamma_up == params.gamma_down == params.gamma_phn == 0.0


def _default_t_end(params: ModelParams, periods_factor: float) -> float:
    """A bit more than one period of the slowest active coupling."""
    couplings = [v for v in (params.g_up, params.g_down, params.g_bond,
                             params.zeta) if v > 0]
    slowest = min(couplings) if couplings else params.max_scale()
    return periods_factor * 2 * np.pi / slowest


def resolve_config(entries: dict, kind: str = None,
                   out: str = None) -> ExperimentConfig:
    """Validate raw entries, fill defaults, and bind everything."""
    res = _Resolver(entries)
    kind = kind or res.strval("kind", choices=KINDS)
    if kind is None:
        raise MissingRequired("missing required key 'kind'")
    if kind not in KINDS:
        raise ConfigTypeError(f"TypeError: kind={kind!r} not one of {KINDS}")
    res.take("kind")
    out = out or res.strval("out", default=f"{kind}-out")

    g = res.floatval("g", default=1.0e7)
    if g <= 0:
        raise ConfigTypeError("TypeError: g must be positive")
    hbar = res.floatval("hbar", default=1.0)
    if hbar <= 0:
        raise ConfigTypeError("TypeError: hbar must be positive")
    interaction_picture = res.boolval("interaction_picture", default=True)
    omega_up = res.relfloat("omega_up", g, default=10 * g)
    omega_down = res.relfloat("omega_down", g, default=10 * g)
    omega_phn = res.relfloat("omega_phn", g, default=10 * g)
    gamma_all = res.relfloat("gamma", g, default=None)
    gamma_default = gamma_all if gamma_all is not None else 0.0
    params = ModelParams(
        hbar=hbar,
        freq_pht_up=0.0 if interaction_picture else omega_up,
        freq_pht_down=0.0 if interaction_picture else omega_down,
        freq_phn=0.0 if interaction_picture else omega_phn,
        g_up=res.relfloat("g_up", g, default=g),
        g_down=res.relfloat("g_down", g, default=g),
        g_bond=res.relfloat("g_omega", g, default=0.5 * g),
        zeta=res.relfloat("zeta", g, default=g),
        gamma_up=res.relfloat("gamma_up", g, default=gamma_default),
        gamma_down=res.relfloat("gamma_down", g, default=gamma_default),
        gamma_phn=res.relfloat("gamma_phn", g, default=gamma_default),
        influx_up=res.relfloat("influx_up", g, default=0.0),
        influx_down=res.relfloat("influx_down", g, default=0.0),
        influx_phn=res.relfloat("influx_phn", g, default=0.0),
    )
    gating = GatingPolicy(
        tunneling_requires_broken_bond=res.boolval(
            "tunneling_requires_broken_bond", default=True),
        bond_term_requires_colocated=res.boolval(
            "bond_term_requires_colocated", default=True),
        literal_tunneling_form=res.boolval(
            "literal_tunneling_form", default=False),
    )
    space_mode = res.strval("space_mode", default="table-compat",
                            choices=("full", "closure", "table-compat"))

    periods_factor = res.floatval("periods_factor", default=1.45)
    if periods_factor <= 0:
        raise ConfigTypeError("TypeError: periods_factor must be positive")
    dt = res.floatval("dt", default=None)
    t_end = res.floatval("t_end", default=None)
    record_stride = res.intval("record_stride", default=None, minimum=1)
    if params.max_scale() == 0 and None in (dt, t_end, record_stride):
        raise ConfigTypeError(
            "TypeError: g_up, g_down, g_omega, zeta, the frequencies and the "
            "rates are all zero, so dt, t_end and record_stride have no "
            "default; give all three")
    if dt is None:
        dt = default_dt(params)
    if not 0 < dt < math.inf:
        raise ConfigTypeError("TypeError: dt must be positive and finite")
    if t_end is None:
        t_end = _default_t_end(params, periods_factor)
    if not dt <= t_end < math.inf:
        raise ConfigTypeError("TypeError: t_end must be finite and at least "
                              "one step")
    if kind == "evolve-open" and _closed(params):
        raise MissingRequired("evolve-open needs a positive gamma "
                              "(missing required key 'gamma')")

    if record_stride is None:
        steps = np.pi / (8 * params.max_scale()) / dt
        if not math.isfinite(steps):
            raise ConfigTypeError("TypeError: record_stride has no finite "
                                  "default at this dt; give it")
        record_stride = max(1, int(round(steps)))
    search = SearchConfig(
        theta_points=res.intval("theta_points", default=17, minimum=1),
        phi_points=res.intval("phi_points", default=17, minimum=1),
        tie_thetas=res.boolval("tie_thetas", default=False),
        tie_phis=res.boolval("tie_phis", default=False),
        zero_phases=res.boolval("zero_phases", default=True),
        refine=res.boolval("refine", default=True),
        refine_tol=res.floatval("refine_tol", default=1e-4),
    )
    sweep_values = res.floatlist("sweep_values",
                                 default=_SWEEP_DEFAULTS.get(kind, ()))
    if kind == "period-law" and not (
            sweep_values and all(0 < v <= 1 for v in sweep_values)):
        raise ConfigTypeError("TypeError: period-law sweep_values must lie "
                              "in (0, 1]")
    if any(v < 0 for v in sweep_values):
        raise ConfigTypeError("TypeError: sweep_values must be nonnegative")
    envelope_window = res.intval("envelope_window", default=0, minimum=0)
    if envelope_window and envelope_window % 2 == 0:
        raise ConfigTypeError("TypeError: envelope_window must be odd "
                              "(0 picks it from the carrier period)")
    if params.g_up == 0 and kind == "period-law":
        raise ConfigTypeError("TypeError: period-law needs a positive g_up; "
                              "it sweeps g_omega in units of g_up")
    if params.g_up == 0 and kind == "discord-series" and params.zeta > 0 \
            and _closed(params) and not envelope_window:
        raise ConfigTypeError("TypeError: g_up=0 leaves envelope_window "
                              "without a default (one carrier period, "
                              "2 pi/g_up); give envelope_window")
    seeds_raw, seeds_line = res.take("seeds")
    if seeds_raw is None:
        seeds = INITIAL_COMPONENTS
    else:
        try:
            seeds = tuple(BasisState.from_string(part.strip())
                          for part in seeds_raw.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigTypeError(
                f"TypeError: seeds (line {seeds_line}): {exc}") from None

    discord_stride = res.intval("discord_stride", default=1, minimum=1)
    config = ExperimentConfig(
        kind=kind,
        out=out,
        params=params,
        gating=gating,
        space_mode=space_mode,
        dt=dt,
        t_end=t_end,
        record_stride=record_stride,
        renormalize_trace=res.boolval("renormalize_trace", default=False),
        search=search,
        discord_stride=discord_stride,
        sweep_values=sweep_values,
        envelope_window=envelope_window,
        periods_factor=periods_factor,
        seeds=seeds,
        include_dissipation=res.boolval("include_dissipation", default=True),
        dump_rho=res.boolval("dump_rho", default=False),
        dump_operators=res.boolval("dump_operators", default=False),
        hbar=hbar,
    )
    res.reject_unknown()
    config.resolved = _describe(config, g, interaction_picture,
                                (omega_up, omega_down, omega_phn))
    return config


def _describe(config, g, interaction_picture, omegas) -> dict:
    p = config.params
    desc = {
        "kind": config.kind,
        "g": g,
        "interaction_picture": interaction_picture,
        "omega_up": omegas[0], "omega_down": omegas[1], "omega_phn": omegas[2],
        "g_up": p.g_up, "g_down": p.g_down, "g_omega": p.g_bond,
        "zeta": p.zeta, "hbar": p.hbar,
        "gamma_up": p.gamma_up, "gamma_down": p.gamma_down,
        "gamma_phn": p.gamma_phn,
        "influx_up": p.influx_up, "influx_down": p.influx_down,
        "influx_phn": p.influx_phn,
        "tunneling_requires_broken_bond":
            config.gating.tunneling_requires_broken_bond,
        "bond_term_requires_colocated":
            config.gating.bond_term_requires_colocated,
        "literal_tunneling_form": config.gating.literal_tunneling_form,
        "space_mode": config.space_mode,
        "dt": config.dt, "t_end": config.t_end,
        "record_stride": config.record_stride,
        "renormalize_trace": config.renormalize_trace,
        "discord_stride": config.discord_stride,
        "theta_points": config.search.theta_points,
        "phi_points": config.search.phi_points,
        "tie_thetas": config.search.tie_thetas,
        "tie_phis": config.search.tie_phis,
        "zero_phases": config.search.zero_phases,
        "refine": config.search.refine,
        "refine_tol": config.search.refine_tol,
        "sweep_values": ",".join(repr(v) for v in config.sweep_values),
        "envelope_window": config.envelope_window,
        "periods_factor": config.periods_factor,
        "seeds": ",".join(s.to_string() for s in config.seeds),
        "include_dissipation": config.include_dissipation,
        "dump_rho": config.dump_rho,
        "dump_operators": config.dump_operators,
    }
    return desc


def _build_space(config: ExperimentConfig):
    if config.space_mode == "full":
        return full_space()
    if config.space_mode == "table-compat" \
            and config.seeds == INITIAL_COMPONENTS:
        return table_space()
    return generate_space(config.seeds, config.params, config.gating,
                          include_dissipation=config.include_dissipation,
                          mode=config.space_mode)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _observables_rows(traj):
    rows = []
    for i, t in enumerate(traj.times):
        rho = traj.density(i)
        rows.append([
            float(t),
            population(rho, "bond_formed"),
            population(rho, "bond_broken"),
            population(rho, "photons_zero"),
            population(rho, "photons_present"),
            state_population(rho, _VACUUM),
            rho.trace(),
            rho.purity(),
        ])
    return rows


_OBS_HEADER = ("t,pop_bond_formed,pop_bond_broken,pop_photons_zero,"
               "pop_photons_present,pop_0000000,trace,purity")


def _write_csv(path, header, rows):
    lines = [header]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    _write_lines(path, lines)


def _guard_margins(traj) -> dict:
    return {"min_eigenvalue": traj.min_eigenvalue,
            "min_eigenvalue_t": traj.min_eigenvalue_t,
            "max_trace_drift": traj.max_trace_drift}


def _auto_window(config, times):
    if config.envelope_window:
        return config.envelope_window
    g_ref = config.params.g_up
    spacing = float(np.median(np.diff(times)))
    window = max(1, int(round((2 * np.pi / g_ref) / spacing)))
    return window + 1 if window % 2 == 0 else window


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
import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt({csv!r}, delimiter=",", names=True)
x = data[{xcol!r}]
y = data[{ycol!r}]
fig, ax = plt.subplots()
ax.plot(x, y, "+", markersize=12)
if {constant!r} is not None:
    grid = np.linspace(x.min(), x.max(), 200)
    ax.plot(grid, {constant!r} / grid, "-")
ax.set_xlabel({xcol!r})
ax.set_ylabel({ycol!r})
fig.savefig({png!r}, dpi=150)
"""


def run(config: ExperimentConfig, out_dir=None) -> list:
    """Execute the experiment and write its artifacts; returns the paths."""
    from pathlib import Path

    out = Path(out_dir or config.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    written = []
    notes = {}

    def emit(name, writer):
        path = out / name
        writer(path)
        written.append(path)

    kind = config.kind
    if config.dump_operators and kind in ("evolve-closed", "evolve-open",
                                          "discord-series"):
        from .operators import build_hamiltonian, write_operator
        h = build_hamiltonian(config.params, _build_space(config),
                              config.gating)
        emit("hamiltonian.txt", lambda p: write_operator(p, h))
    if kind == "generate-space":
        space = generate_space(config.seeds, config.params, config.gating,
                               include_dissipation=config.include_dissipation,
                               mode=config.space_mode)
        emit("space.txt", space.dump)
        notes["space_size"] = space.size
    elif kind in ("evolve-closed", "evolve-open"):
        traj = _run_trajectory(config)
        notes.update(_guard_margins(traj))
        emit("observables.csv",
             lambda p: _write_csv(p, _OBS_HEADER, _observables_rows(traj)))
        if config.dump_rho:
            emit("rho.csv", traj.to_csv)
        emit("plot_observables.py", lambda p: _write_lines(p, [_PLOT_SERIES.format(
            csv="observables.csv",
            columns=["pop_bond_formed", "pop_bond_broken",
                     "pop_photons_zero", "pop_photons_present"],
            png="observables.png")]))
    elif kind == "discord-series":
        traj, points = _run_series(config)
        notes.update(_guard_margins(traj))
        notes["discord_pure_snapshots"] = \
            f"{sum(pt.pure for pt in points)}/{len(points)}"
        emit("observables.csv",
             lambda p: _write_csv(p, _OBS_HEADER, _observables_rows(traj)))
        emit("discord.csv", lambda p: _write_lines(
            p, [DiscordPoint.CSV_HEADER] + [pt.csv_row() for pt in points]))
        if config.dump_rho:
            emit("rho.csv", traj.to_csv)
        times = np.array([pt.t for pt in points])
        series = np.array([pt.discord for pt in points])
        p = config.params
        if not _closed(p):
            # the decaying open-system discord has no sensible sinusoid fit
            notes["fit_skipped"] = "open-system run"
        else:
            use_envelope = p.zeta > 0
            notes["fit_on_envelope"] = use_envelope
            try:
                if use_envelope:
                    window = _auto_window(config, times)
                    notes["envelope_window"] = window
                    tf, vf = envelope(times, series, window)
                else:
                    tf, vf = times, series
                fit = fit_sinusoid(tf, vf)
                emit("fit.csv", lambda path: _write_csv(
                    path, "amplitude,angular_frequency,phase,offset,period,"
                          "rms_residual",
                    [[fit.amplitude, fit.angular_frequency, fit.phase,
                      fit.offset, fit.period, fit.rms_residual]]))
            except SimulationError as exc:
                notes["fit_error"] = f"{type(exc).__name__}: {exc}"
        emit("plot_discord.py", lambda p: _write_lines(p, [_PLOT_SERIES.format(
            csv="discord.csv", columns=["D", "I", "J"], png="discord.png")]))
        emit("plot_observables.py", lambda p: _write_lines(p, [_PLOT_SERIES.format(
            csv="observables.csv",
            columns=["pop_photons_zero", "pop_photons_present"],
            png="observables.png")]))
    elif kind == "period-law":
        result = period_law(config.sweep_values, config.params.zeta,
                            config.params, search=config.search,
                            gating=config.gating,
                            periods_factor=config.periods_factor)
        rows = [[x, period, fit.rms_residual]
                for (x, period), fit in zip(result.samples, result.fits)]
        emit("sweep.csv", lambda p: _write_csv(
            p, "g_omega_over_g,fitted_period_s,rms_residual", rows))
        emit("law.csv", lambda p: _write_csv(
            p, "c_seconds,residual",
            [[result.constant_c, result.fit_residual]]))
        notes["fit_on_envelope"] = result.used_envelope
        notes["constant_c"] = result.constant_c
        emit("plot_sweep.py", lambda p: _write_lines(p, [_PLOT_SWEEP.format(
            csv="sweep.csv", xcol="g_omega_over_g", ycol="fitted_period_s",
            constant=result.constant_c, png="sweep.png")]))
    elif kind in ("sweep-g-omega", "sweep-gamma"):
        rows = []
        g_ref = config.params.g_up
        for x in sorted(config.sweep_values):
            if kind == "sweep-g-omega":
                params = replace(config.params, g_bond=x * g_ref)
            else:
                params = replace(config.params, gamma_up=x * g_ref,
                                 gamma_down=x * g_ref, gamma_phn=x * g_ref)
            sweep_cfg = replace(config, params=params)
            _, points = _run_series(sweep_cfg)
            rows.append([x, max(pt.discord for pt in points)])
        xcol = "g_omega_over_g" if kind == "sweep-g-omega" else "gamma_over_g"
        emit("sweep_peak.csv", lambda p: _write_csv(
            p, f"{xcol},peak_discord", rows))
        emit("plot_sweep.py", lambda p: _write_lines(p, [_PLOT_SWEEP.format(
            csv="sweep_peak.csv", xcol=xcol, ycol="peak_discord",
            constant=None, png="sweep_peak.png")]))

    meta = dict(config.resolved)
    meta.update(notes)
    meta["version"] = __version__
    meta["wall_time_s"] = round(time.time() - started, 3)
    emit("run-metadata.txt", lambda p: _write_lines(
        p, [f"{key}={meta[key]}" for key in sorted(meta)]))
    return written


def _run_trajectory(config: ExperimentConfig):
    from .dynamics import evolve, initial_state
    from .operators import build_hamiltonian, build_jump_channels

    space = _build_space(config)
    h = build_hamiltonian(config.params, space, config.gating)
    channels = build_jump_channels(config.params, space)
    sim = SimConfig(dt=config.dt, t_end=config.t_end,
                    record_stride=config.record_stride,
                    renormalize_trace=config.renormalize_trace)
    traj = evolve(initial_state(space), h, channels, sim, hbar=config.hbar)
    traj.params = config.params
    return traj


def _run_series(config: ExperimentConfig):
    sim = SimConfig(dt=config.dt, t_end=config.t_end,
                    record_stride=config.record_stride,
                    renormalize_trace=config.renormalize_trace)
    return run_discord_series(config.params, sim, space=_build_space(config),
                              gating=config.gating, search=config.search,
                              discord_stride=config.discord_stride)


def _load(path, kind, out, overrides):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = parse_config(text)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigTypeError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        entries[key.strip()] = (value.strip(), 0)
    return resolve_config(entries, kind=kind, out=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="h2discord",
        description="Photon-matter model simulator and discord analyzer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "dump-space"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--kind", choices=KINDS)
        p.add_argument("--out")
        p.add_argument("--override", action="append", default=[],
                       metavar="key=value")
    args = parser.parse_args(argv)

    try:
        config = _load(args.config, args.kind, args.out, args.override)
        if args.command == "validate":
            for key in sorted(config.resolved):
                print(f"{key}={config.resolved[key]}")
            return EXIT_OK
        if args.command == "dump-space":
            space = generate_space(
                config.seeds, config.params, config.gating,
                include_dissipation=config.include_dissipation,
                mode=config.space_mode)
            sys.stdout.write("\n".join(space.dump_lines()) + "\n")
            return EXIT_OK
        written = run(config)
        for path in written:
            print(path)
        return EXIT_OK
    except ConfigError as exc:
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
