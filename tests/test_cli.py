import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from h2discord import analysis, cli
from h2discord.cli import KEYS as CONFIG_KEYS, KINDS, SWEEPS, \
    _build_space, main, parse_config, resolve_config, run
from h2discord.discord import MAX_GRID_POINTS, SearchConfig
from h2discord.dynamics import MAX_RECORDS, initial_state
from h2discord.errors import ConfigError, ConfigTypeError, MissingRequired, \
    PositivityLost, UnknownKey
from h2discord.operators import ModelParams, build_jump_channels
from h2discord.statespace import JUMPS, GatingPolicy


def resolve(text, **given):
    """resolve_config of the config text, each given key set as an entry."""
    entries = parse_config(text)
    entries.update((key, (value, None)) for key, value in given.items())
    return resolve_config(entries)


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

# every key a config may set: the resolved ones, the gamma shorthand, out
KEYS = sorted(set(resolve("", kind="discord-series").resolved) - {"kind"}
              | {"gamma", "out"})
NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "17", "0.5", "1e308", "1e-320",
                     "nan", "inf", "-inf"]),
    st.integers(min_value=-5, max_value=50).map(str),
    st.floats().map(repr))
WORD = st.sampled_from(["true", "false", "off", "banana", "closure", "full",
                        "table-compat", "", "0000010", "0000010,1111111"])
TOKEN = st.one_of(NUMBER, WORD, NUMBER.map(lambda t: t + "g"), st.just("g"),
                  st.lists(NUMBER, max_size=4).map(",".join))


class TestParseConfig:
    def test_comments_and_blanks(self):
        entries = parse_config("# header\n\ng = 2e7  # inline\nzeta=0\n")
        assert entries["g"] == ("2e7", 3)
        assert entries["zeta"] == ("0", 4)

    def test_rejects_bare_words(self):
        with pytest.raises(ConfigTypeError):
            parse_config("just-some-text\n")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigTypeError):
            parse_config("g=1\ng=2\n")


class TestResolveConfig:
    def test_empty_file_defaults(self):
        config = resolve("", kind="discord-series")
        p = config.params
        assert p.zeta == 1e7
        assert p.g_up == p.g_down == 1e7
        assert p.g_omega == 0.5e7
        assert p.gamma_up == 0.0
        assert config.space_mode == "table-compat"
        assert config.t_end > 0 and config.dt > 0

    def test_zeta_zero_disables_tunneling(self):
        config = resolve("zeta=0\n", kind="discord-series")
        assert config.params.zeta == 0.0

    def test_relative_values(self):
        config = resolve("g=2e7\ng_omega=0.25g\ngamma=g\n",
                         kind="discord-series")
        assert config.params.g_omega == 0.5e7
        assert config.params.gamma_phn == 2e7

    def test_type_error_names_key(self):
        with pytest.raises(ConfigTypeError) as err:
            resolve("g_omega=banana\n", kind="discord-series")
        assert "g_omega" in str(err.value)

    # the search has no tied-angle families; hbar (every value is in
    # rad/s), renormalize_trace and dump_operators went as well, and so
    # did the switches that only picked another key's value:
    # interaction_picture (omega_* = 0) and zero_phases (phi_points = 1),
    # and the space inputs that space_mode decides: seeds and
    # include_dissipation; and the mode frequencies (the model is
    # written in the interaction picture), the envelope window (one
    # carrier period) and the discord stride (record_stride samples); and
    # the search's refine switch and tolerance (it always refines to
    # discord.REFINE_TOL); and the diagonal tunneling form (the tunneling
    # term always moves the nuclei)
    @pytest.mark.parametrize("key,value", [
        *((key, "1") for key in ("banana", "tie_thetas", "tie_phis", "hbar",
                                 "renormalize_trace", "dump_operators",
                                 "interaction_picture", "zero_phases",
                                 "seeds", "include_dissipation", "omega_up",
                                 "omega_down", "omega_phn", "discord_stride",
                                 "envelope_window")),
        ("refine", "maybe"), ("refine_tol", "0"), ("refine_tol", "-1e-4"),
        ("literal_tunneling_form", "true")])
    def test_unknown_key_named_with_line(self, key, value):
        with pytest.raises(UnknownKey) as err:
            resolve(f"g=1e7\n{key}={value}\n", kind="discord-series")
        assert f"unknown key {key!r} (line 2)" in str(err.value)

    def test_takes_only_entries(self):
        # every given value, --out and a sweep point's kind included,
        # arrives as an entry
        assert list(inspect.signature(resolve_config).parameters) == \
            ["entries"]

    @pytest.mark.parametrize("text,key", [
        ("g_down=-0\n", "g_down"), ("g_omega=-0g\n", "g_omega"),
        ("influx_up=-0\n", "influx_up"), ("gamma=-0.0\n", "gamma_up")])
    def test_negative_zero_resolves_to_zero(self, text, key):
        config = resolve(text, kind="discord-series")
        assert math.copysign(1.0, config.resolved[key]) == 1.0

    def test_missing_kind(self):
        with pytest.raises(MissingRequired):
            resolve("g=1e7\n")

    @pytest.mark.parametrize("text", ["g_omega=nang\n", "gamma=inf\n",
                                      "g_up=1e308g\n", "t_end=inf\n",
                                      "sweep_values=0.1,nan\n",
                                      "phi_points=0\n", "theta_points=-3\n",
                                      "theta_points=1\n",
                                      "g_up=0\ng_down=0\ng_omega=0\nzeta=0\n",
                                      "g_up=0\ng_down=0\ng_omega=0\nzeta=0\n"
                                      "dt=1e-10\nt_end=1e-8\n",
                                      "dt=1e-320\n", "periods_factor=-1\n",
                                      "gamma=-1g\n", "zeta=-1g\n"])
    def test_rejects_non_finite_numbers_and_empty_grids(self, text):
        with pytest.raises(ConfigTypeError) as err:
            resolve(text, kind="discord-series")
        assert text.split("=")[0] in str(err.value)

    @pytest.mark.parametrize("kind,values", [("period-law", "2"),
                                             ("period-law", "0,0.1"),
                                             ("period-law", ""),
                                             ("sweep-gamma", ""),
                                             ("sweep-g-omega", ""),
                                             ("sweep-gamma", "-1"),
                                             ("period-law", "0.1,0.2,0.1"),
                                             ("sweep-gamma", "0.5,0.5"),
                                             ("sweep-g-omega", "0.5,0.5")])
    def test_rejects_sweep_values_the_sweep_cannot_run(self, kind, values):
        with pytest.raises(ConfigTypeError) as err:
            resolve(f"sweep_values={values}\n", kind=kind)
        assert "sweep_values" in str(err.value)

    # sweep values are in units of g_up
    @pytest.mark.parametrize("kind", SWEEPS)
    @pytest.mark.parametrize("text", ["g_up=0\n", "g_up=0\nzeta=0\n"])
    def test_sweeps_need_a_reference_coupling(self, text, kind):
        with pytest.raises(ConfigTypeError, match="g_up"):
            resolve(text, kind=kind)

    def test_period_law_records_no_record_grid(self):
        # every point runs on the default grid of its own model
        grid = {"dt", "t_end", "record_stride"}
        law = resolve("", kind="period-law")
        assert not grid & set(law.resolved)
        for _, point in law.points:
            assert grid <= set(point.resolved)

    # a closed series with zeta > 0 records the envelope fit's error
    @pytest.mark.parametrize("text", ["g_up=0\n", "g_up=0\nzeta=0\n",
                                      "g_up=0\ngamma=g\n"])
    def test_zero_g_up_resolves_where_nothing_divides_by_it(self, text):
        assert resolve(text, kind="discord-series").params.g_up == 0

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_sweep_records_no_grid_it_does_not_give(self, kind):
        # so each point runs on the default grid of its own model; nor
        # the keys it sweeps, which each point records at its own value
        sweep = resolve("", kind=kind)
        swept = set(cli._SWEEPS[kind].swept)
        assert not ({"dt", "t_end", "record_stride"} | swept) \
            & set(sweep.resolved)
        for x, point in sweep.points:
            for name in swept:
                assert point.resolved[name] == x * sweep.params.g_up

    @pytest.mark.parametrize("kind,text,key,origin", [
        ("sweep-g-omega", "g_omega=0.3g\n", "g_omega", "(line 2)"),
        ("period-law", "zeta=0\ng_omega=0.3g\n", "g_omega", "(line 3)"),
        ("sweep-gamma", "gamma_down=0.1g\n", "gamma_down", "(line 2)"),
        ("sweep-gamma", "zeta=g\ngamma=1e6g\nsweep_values=0.2,0.5\n",
         "gamma", "(line 3)"),
        ("sweep-gamma", "", "gamma_phn", "(--override)")],
        ids=["g-omega", "period-law", "decay", "gamma", "override"])
    def test_sweep_refuses_the_keys_it_sweeps(self, tmp_path, capsys, kind,
                                              text, key, origin):
        # each point would set the value anew, so the sweep ignored it;
        # gamma only sets the defaults of the decays sweep-gamma sweeps
        path = write_config(tmp_path, f"kind={kind}\n" + text)
        override = ["--override", f"{key}=0.3g"] if "override" in origin \
            else []
        assert main(["validate", path, *override]) == 2
        err = capsys.readouterr().err
        assert f"{kind} takes no {key} {origin}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["sweep-g-omega", "sweep-gamma"])
    def test_grid_a_sweep_gives_applies_to_every_point(self, kind):
        sweep = resolve("dt=1e-10\nrecord_stride=100\n", kind=kind)
        assert "t_end" not in sweep.resolved
        own = resolve("", kind=kind).points
        for (x, point), (_, alone) in zip(sweep.points, own):
            assert point.sim == dataclasses.replace(
                alone.sim, dt=1e-10, record_stride=100), x

    def test_reproduction_configs_are_distinct_runs(self):
        # out is not part of `resolved`, so equal dicts mean equal runs;
        # each sweep point is a run of its own
        seen = {}
        for path in CONFIGS:
            config = resolve(path.read_text(encoding="utf-8"))
            for name, each in [(path.stem, config)] + [
                    (f"{path.stem}/{x!r}", point)
                    for x, point in config.points]:
                key = tuple(sorted(each.resolved.items()))
                assert key not in seen, f"{name} repeats {seen.get(key)}"
                seen[key] = name
        assert seen

    @settings(max_examples=300, derandomize=True, deadline=None)
    @example(kind="discord-series",
             entries={"g_up": "0", "g_down": "0", "g_omega": "0",
                      "zeta": "0", "dt": "1e-10", "t_end": "1e-8"})
    # a step count that overflows a float
    @example(kind="discord-series", entries={"dt": "1e-300",
                                             "t_end": "1e300"})
    # about 5e31 records on the default grid
    @example(kind="discord-series", entries={"gamma": "1e30g"})
    # a search grid of 1001^2 points, just over MAX_GRID_POINTS
    @example(kind="discord-series", entries={"theta_points": "1001"})
    @given(kind=st.sampled_from(KINDS),
           entries=st.dictionaries(st.sampled_from(KEYS), TOKEN, max_size=8))
    def test_any_config_text_resolves_or_raises_config_error(self, kind,
                                                             entries):
        text = "".join(f"{key}={value}\n" for key, value in entries.items())
        try:
            config = resolve(text, kind=kind)
        except ConfigError:
            return
        # a sweep binds no record grid or search: each of its points does
        if config.kind in SWEEPS:
            assert config.sim is None and config.search is None
        for each in [point for _, point in config.points] or [config]:
            assert math.isfinite(each.sim.t_end / each.sim.dt)
            assert 1 + math.ceil(each.sim.n_steps / each.sim.record_stride) \
                <= MAX_RECORDS
            assert each.search.theta_points**2 * each.search.phi_points**2 \
                <= MAX_GRID_POINTS

    def test_readme_key_table_matches_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Keys and defaults", 1)[1]
        rows = [line for line in section.split("\n### ", 1)[0].splitlines()
                if line.startswith("| `")]
        names = {name for row in rows
                 for name in re.findall(r"`([a-z_]+)`", row.split("|")[1])}
        assert names == {key.name for key in CONFIG_KEYS}
        kind_row, = [row for row in rows if row.startswith("| `kind` |")]
        assert re.findall(r"`([a-z-]+)`", kind_row.split("|")[3]) \
            == list(KINDS)

    def test_search_defaults_are_search_config_defaults(self):
        config = resolve("", kind="discord-series")
        assert config.search == SearchConfig()
        # every CLI run takes the paper's gates, which perfbench reads
        assert config.gating == GatingPolicy()

    def test_rate_keys_are_the_jump_fields(self):
        # the decays, then the influxes; gamma sets every decay
        rates = [key.name for key in CONFIG_KEYS
                 if key.name.startswith(("gamma_", "influx_"))]
        assert rates == [jump.decay for jump in JUMPS] \
            + [jump.influx for jump in JUMPS]
        config = resolve("gamma=2g\n", kind="discord-series")
        for jump in JUMPS:
            assert config.resolved[jump.decay] == 2e7
            assert config.resolved[jump.influx] == 0.0

    def test_library_default_model_is_the_cli_default(self):
        assert resolve_config({"kind": ("discord-series", 1)}).params \
            == ModelParams()

    @pytest.mark.parametrize("rates", ["", "gamma=g\n", "influx_up=0.3g\n"],
                             ids=["closed", "loss", "influx"])
    @pytest.mark.parametrize("mode", ["table-compat", "closure"])
    def test_every_space_holds_the_initial_state_and_the_jump_images(
            self, mode, rates):
        # the table holds the initial components, and closure mode closes
        # them under every decay and each positive influx (under every
        # gating in test_statespace)
        config = resolve(f"space_mode={mode}\nt_end=1e-7\n" + rates,
                         kind="discord-series")
        assert config.space.mode == mode
        initial_state(config.space)
        build_jump_channels(config.params, config.space)


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# a closed period law and an open peak sweep with the same points
LAW = "kind=period-law\nzeta=0\nsweep_values=0.1,0.2\n"
PEAKS = ("kind=sweep-g-omega\ngamma=g\nt_end=2e-7\nsweep_values=0.1,0.2\n"
         "theta_points=5\n")

# a series and a one-point sweep write no top-level artifact in common
# but run-metadata.txt
SERIES = "kind=discord-series\nt_end=2e-7\n"
ONE_PEAK = ("kind=sweep-g-omega\ngamma=g\nt_end=2e-7\nsweep_values=0.1\n"
            "theta_points=5\n")

SMALL_SERIES = ("kind=discord-series\n"
                "g_omega=0.1g\n"
                "t_end=3e-7\n"
                "dt=1e-10\n"
                "record_stride=150\n"
                "theta_points=5\n")


SWEEP = ("sweep_values=0.5,1\nt_end=4e-8\ndt=1e-10\n"
         "record_stride=100\ntheta_points=5\n")


@pytest.fixture(scope="module")
def sweep_peaks(tmp_path_factory):
    """sweep_peak.csv lines of both sweep kinds on a tiny open config;
    sweep-gamma sets the decays itself."""
    peaks = {}
    for kind, rates in (("sweep-g-omega", "gamma=g\n"), ("sweep-gamma", "")):
        out = tmp_path_factory.mktemp(kind)
        run(resolve(f"kind={kind}\n" + rates + SWEEP, out=str(out)))
        peaks[kind] = (out / "sweep_peak.csv").read_text().splitlines()
    return peaks


class TestRun:
    @pytest.mark.parametrize("kind,column", [("sweep-g-omega",
                                              "g_omega_over_g"),
                                             ("sweep-gamma", "gamma_over_g")])
    def test_sweep_peak_csv(self, sweep_peaks, kind, column):
        header, *rows = sweep_peaks[kind]
        assert header == f"{column},peak_discord"
        assert [float(row.split(",")[0]) for row in rows] == [0.5, 1.0]
        assert all(0 < float(row.split(",")[1]) < np.log(4) for row in rows)

    def test_sweeps_agree_at_their_shared_point(self, sweep_peaks):
        # g_omega = 0.5g with gamma = g is the default g_omega at gamma = g
        by_g_omega = sweep_peaks["sweep-g-omega"][1].split(",")
        by_gamma = sweep_peaks["sweep-gamma"][2].split(",")
        assert by_g_omega[0] == "0.5" and by_gamma[0] == "1.0"
        assert by_g_omega[1] == by_gamma[1]
        assert float(by_gamma[1]) == pytest.approx(0.0092896, rel=1e-4)

    @pytest.mark.parametrize("mode,size", [("closure", 36),
                                           ("table-compat", 26)])
    def test_period_law_evolves_on_the_configured_space(
            self, tmp_path, monkeypatch, mode, size):
        spaces = []
        evolve_model = analysis.evolve_model

        def spy(params, sim, space, gating):
            spaces.append((space.mode, space.size))
            return evolve_model(params, sim, space, gating)

        monkeypatch.setattr(analysis, "evolve_model", spy)
        config = resolve(f"kind=period-law\nspace_mode={mode}\n"
                         "sweep_values=0.1,0.2\n", out=str(tmp_path))
        run(config)
        assert spaces == [(mode, size)] * 2
        assert (tmp_path / "law.csv").exists()

    @pytest.mark.parametrize("sweep,series,point", [
        ("kind=period-law\nzeta=0\nsweep_values=0.2\n",
         "zeta=0\ng_omega=0.2g\n", "g_omega_over_g=0.2"),
        ("kind=period-law\nzeta=g\nsweep_values=0.2\n",
         "zeta=g\ng_omega=0.2g\n", "g_omega_over_g=0.2"),
        ("kind=sweep-g-omega\ngamma=g\nsweep_values=1\n",
         "gamma=g\ng_omega=g\n", "g_omega_over_g=1.0"),
        ("kind=sweep-gamma\nsweep_values=0.5\n", "gamma=0.5g\n",
         "gamma_over_g=0.5")],
        ids=["period-law-zeta=0", "period-law-zeta=g", "sweep-g-omega",
             "sweep-gamma"])
    def test_sweep_point_is_the_discord_series_run(self, tmp_path, sweep,
                                                   series, point):
        # a point writes the run of a discord-series config at its x, on
        # that config's own record grid
        swept, alone = tmp_path / "sweep", tmp_path / "series"
        run(resolve(sweep, out=str(swept)))
        run(resolve("kind=discord-series\n" + series, out=str(alone)))

        def content(path):
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("wall_time_s=")]

        def row(path):
            header, values = path.read_text().splitlines()
            return dict(zip(header.split(","), values.split(",")))

        names = sorted(path.name for path in alone.iterdir())
        assert sorted(path.name for path in (swept / point).iterdir()) \
            == names
        for name in names:
            assert content(swept / point / name) == content(alone / name), \
                name
        if "period-law" in sweep:
            swept_row, fit = row(swept / "sweep.csv"), row(alone / "fit.csv")
            assert swept_row["fitted_period_s"] == fit["period"]
            assert swept_row["rms_residual"] == fit["rms_residual"]
        else:
            data = np.genfromtxt(alone / "discord.csv", delimiter=",",
                                 names=True)
            peak = float(row(swept / "sweep_peak.csv")["peak_discord"])
            assert peak == data["D"].max()

    def test_law_plot_scripts_read_law_csv(self, tmp_path, monkeypatch,
                                           sweep_runs):
        # the fitted c is read from law.csv, so the two laws' scripts are
        # the same bytes; each point's series comes from the fixture
        series = {}
        for name in ("fig8a", "fig8b"):
            for _, point, *result in sweep_runs(name)[0]:
                series[tuple(sorted(point.resolved.items()))] = result
        monkeypatch.setattr(cli, "_run_series", lambda point: series[
            tuple(sorted(point.resolved.items()))])
        scripts = []
        for name in ("fig8a", "fig8b"):
            config = resolve((ROOT / "configs" / f"{name}.cfg").read_text())
            run(config, tmp_path / name)
            assert (tmp_path / name / "law.csv").exists()
            scripts.append((tmp_path / name / "plot_sweep.py").read_bytes())
        assert scripts[0] == scripts[1]
        assert b'"law.csv"' in scripts[0]

    def test_discord_series_artifacts(self, tmp_path):
        config = resolve(SMALL_SERIES, out=str(tmp_path / "o"))
        run(config)
        out = tmp_path / "o"
        data = np.genfromtxt(out / "discord.csv", delimiter=",", names=True)
        assert np.all(data["D"] <= data["S_A"] + 1e-6)
        assert (out / "observables.csv").exists()
        assert (out / "run-metadata.txt").exists()
        assert (out / "plot_discord.py").exists()
        meta = (out / "run-metadata.txt").read_text()
        assert "version=" in meta and "wall_time_s=" in meta
        # no phase search: the record says so
        assert "phi_points=1" in meta.splitlines()
        for key in ("interaction_picture", "zero_phases", "omega_",
                    "discord_stride"):
            assert key not in meta

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            config = resolve(SMALL_SERIES, out=str(tmp_path / name))
            run(config)
        for artifact in ("discord.csv", "observables.csv"):
            first = (tmp_path / "a" / artifact).read_bytes()
            second = (tmp_path / "b" / artifact).read_bytes()
            assert first == second

    @pytest.mark.parametrize("steps,pure,fallbacks", [
        ("dt=1e-10\nrecord_stride=100\n", "5/5", "0/0"),
        ("gamma=g\ndt=1e-12\nrecord_stride=10000\n", "1/5", "1/4")])
    def test_pure_snapshot_count_in_metadata(self, tmp_path, steps, pure,
                                             fallbacks):
        # closed runs stay pure; an open one is pure only at t = 0, and
        # only its first mixed snapshot searches the full grid
        text = ("kind=discord-series\ng_omega=0.1g\nt_end=4e-8\n"
                "theta_points=5\n" + steps)
        run(resolve(text, out=str(tmp_path / "o")))
        meta = (tmp_path / "o" / "run-metadata.txt").read_text().splitlines()
        assert f"discord_pure_snapshots={pure}" in meta
        assert f"discord_grid_fallbacks={fallbacks}" in meta

    @pytest.mark.parametrize("extra,moved,moves", [
        ("", (), "0/0"), ("gamma=g\n", (), "0/4"),
        ("gamma=g\n", (2, 4), "2/4")],
        ids=["closed", "open", "open-moved"])
    def test_refine_moves_in_metadata(self, tmp_path, monkeypatch, extra,
                                      moved, moves):
        # k/m: the refinement moved the search's start at k of the m
        # mixed snapshots; the open run's argmins all sit at the corner,
        # so its records `moved` are marked as moved
        series = cli._run_series

        def marked(config):
            traj, points = series(config)
            return traj, [dataclasses.replace(pt, refine_moved=True)
                          if i in moved else pt
                          for i, pt in enumerate(points)]

        monkeypatch.setattr(cli, "_run_series", marked)
        text = ("kind=discord-series\nt_end=4e-8\ntheta_points=5\n"
                "dt=1e-12\nrecord_stride=10000\n" + extra)
        run(resolve(text, out=str(tmp_path / "o")))
        meta = (tmp_path / "o" / "run-metadata.txt").read_text().splitlines()
        assert f"discord_refine_moves={moves}" in meta

    @pytest.mark.parametrize("extra", [
        "", "gamma=g\ntheta_points=5\n",
        "influx_up=0.2g\nspace_mode=closure\ntheta_points=5\n"],
        ids=["closed", "open", "influx"])
    def test_guard_margins_in_metadata(self, tmp_path, extra):
        text = ("kind=discord-series\nt_end=4e-8\ndt=1e-10\n"
                "record_stride=100\n" + extra)
        run(resolve(text, out=str(tmp_path / "o")))
        meta = dict(line.split("=", 1) for line in
                    (tmp_path / "o" / "run-metadata.txt").read_text()
                    .splitlines())
        low, drift = float(meta["min_eigenvalue"]), \
            float(meta["max_trace_drift"])
        assert -1e-12 <= low <= 1e-12 and 0 <= drift <= 1e-12
        assert 0 <= float(meta["max_hermiticity_error"]) <= 1e-12
        assert float(meta["min_eigenvalue_t"]) in \
            {step * 1e-10 for step in (100, 200, 300, 400)}
        # a loss or an influx rate makes the run open: no period fit
        assert meta.get("fit_skipped") == ("open-system run" if extra
                                           else None)

    def test_open_observables(self, tmp_path):
        text = ("kind=discord-series\ngamma=g\nt_end=2e-7\ndt=1e-12\n"
                "record_stride=20000\ntheta_points=5\n")
        config = resolve(text, out=str(tmp_path / "o"))
        run(config)
        data = np.genfromtxt(tmp_path / "o" / "observables.csv",
                             delimiter=",", names=True)
        assert data["pop_0000000"][-1] > data["pop_0000000"][0]
        assert np.all(np.abs(data["trace"] - 1) < 1e-9)

    def test_rho_dump(self, tmp_path):
        text = SMALL_SERIES + "dump_rho=true\n"
        config = resolve(text, out=str(tmp_path / "o"))
        run(config)
        header = (tmp_path / "o" / "rho.csv").read_text().splitlines()[0]
        assert header.startswith("t,re_rho_0_0")
        assert len(header.split(",")) == 1 + 2 * 26 * 26


class TestMain:
    @pytest.mark.parametrize("text,builds,resolves", [
        ("kind=discord-series\ngamma=g\n", 1, 1),
        ("kind=sweep-gamma\nsweep_values=0.5,1\n", 2, 3)],
        ids=["discord-series", "sweep-gamma"])
    def test_each_space_is_built_once_and_each_point_resolved_once(
            self, tmp_path, monkeypatch, text, builds, resolves):
        # one space per run or sweep point, one resolve per point plus
        # the config's own
        calls = dict.fromkeys(("generate_space", "table_space",
                               "resolve_config"), 0)

        def spy(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        path = write_config(tmp_path, text + "space_mode=closure\n"
                            "dt=1e-10\nt_end=1e-8\nrecord_stride=20\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"generate_space": builds, "table_space": 0,
                         "resolve_config": resolves}

    def test_validate_prints_resolved(self, tmp_path, capsys):
        path = write_config(tmp_path, "kind=discord-series\nzeta=0\n")
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "zeta=0.0" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "banana=1\n")
        assert main(["validate", path, "--override",
                     "kind=discord-series"]) == 2
        assert "banana" in capsys.readouterr().err

    def test_kind_flag_is_gone(self, tmp_path, capsys):
        # --override kind=... sets the kind
        path = write_config(tmp_path, "kind=period-law\n")
        with pytest.raises(SystemExit) as err:
            main(["validate", path, "--kind", "discord-series"])
        assert err.value.code == 2
        assert "--kind" in capsys.readouterr().err

    def test_generate_space_is_a_bad_kind(self, tmp_path, capsys):
        # dump-space prints the space of any config
        path = write_config(tmp_path, "kind=generate-space\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "generate-space" in err and "line 1" in err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a horizon of 1% of the period leaves the fit 3 samples
        path = write_config(
            tmp_path, "kind=period-law\nzeta=0\nsweep_values=0.1\n"
                      "periods_factor=0.01\n")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert "InsufficientData" in capsys.readouterr().err

    @pytest.mark.parametrize("text,error", [
        # a horizon of 5% of the period leaves the law's fit 5 samples
        ("kind=period-law\nzeta=0\nsweep_values=0.2\nperiods_factor=0.05\n",
         "InsufficientData: g_omega_over_g=0.2: need >= 8 samples, got 5"),
        ("kind=sweep-gamma\nsweep_values=0.5,1\n",
         "PositivityLost: gamma_over_g=0.5: rho lost positivity")],
        ids=["fit-error", "raised"])
    def test_numerical_error_names_its_point(self, tmp_path, capsys,
                                             monkeypatch, text, error):
        def lost(config):
            raise PositivityLost("rho lost positivity")

        if "PositivityLost" in error:
            monkeypatch.setattr(cli, "_run_series", lost)
        path = write_config(tmp_path, text)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == error + "\n"

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, SMALL_SERIES)
        code = main(["run", path, "--out", str(blocker / "nested")])
        assert code == 4

    def test_override(self, tmp_path, capsys):
        path = write_config(tmp_path, "kind=discord-series\n")
        assert main(["validate", path, "--override", "zeta=0.25g"]) == 0
        assert "zeta=2500000.0" in capsys.readouterr().out

    def test_unknown_override_key_names_the_override(self, tmp_path,
                                                     capsys):
        path = write_config(tmp_path, "kind=discord-series\n")
        assert main(["validate", path, "--override", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'bogus' (--override)" in err
        assert "line" not in err

    @pytest.mark.parametrize("key,value", [
        *((key, "true") for key in ("interaction_picture", "zero_phases",
                                    "seeds", "include_dissipation",
                                    "omega_up", "omega_down", "omega_phn",
                                    "discord_stride", "envelope_window")),
        ("refine", "maybe"), ("refine_tol", "0"), ("refine_tol", "-1e-4"),
        ("literal_tunneling_form", "true")])
    def test_removed_switches_are_unknown_overrides(self, tmp_path, capsys,
                                                    key, value):
        # the model is written in the interaction picture, phi_points = 1
        # fixes the phases, space_mode alone picks the space, the envelope
        # spans one carrier period, discord is taken at every record, the
        # search always refines to discord.REFINE_TOL and the tunneling
        # term always moves the nuclei
        path = write_config(tmp_path, "kind=discord-series\n")
        assert main(["validate", path, "--override", f"{key}={value}"]) == 2
        assert f"unknown key '{key}' (--override)" in capsys.readouterr().err

    def test_dump_space(self, tmp_path, capsys):
        path = write_config(tmp_path, "kind=discord-series\n")
        assert main(["dump-space", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 26
        assert lines[0] == "0\t0000000"

    def test_dump_space_prints_the_space_run_evolves(self, tmp_path,
                                                     capsys):
        # without tunneling the closure misses 4 states of the table
        text = "kind=discord-series\nzeta=0\n"
        assert main(["dump-space", write_config(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == _build_space(resolve(text)).dump_lines()
        assert len(lines) == 26

    def test_dump_space_of_a_sweep_prints_each_point_space(self, tmp_path,
                                                            capsys):
        # without the bond move the x = 0 point's closure is the 8 states
        # the tunneling and photon moves reach
        text = ("kind=sweep-g-omega\nspace_mode=closure\n"
                "sweep_values=0,0.5\n")
        assert main(["dump-space", write_config(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        points = resolve(text).points
        assert lines == ["# g_omega_over_g=0.0",
                         *points[0][1].space.dump_lines(),
                         "# g_omega_over_g=0.5",
                         *points[1][1].space.dump_lines()]
        assert [point.space.size for _, point in points] == [8, 36]

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("way", ["line", "flag"])
    def test_empty_out_exits_as_config_error(self, tmp_path, capsys,
                                             monkeypatch, command, way):
        # an empty out would write into the current directory
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, SMALL_SERIES
                            + ("out=\n" if way == "line" else ""))
        flag = ["--out", ""] if way == "flag" else []
        assert main([command, path, *flag]) == 2
        err = capsys.readouterr().err
        assert "out=''" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_out_flag_replaces_out_key(self, tmp_path, capsys):
        # --out beats both an out line and --override out=...
        path = write_config(tmp_path,
                            SMALL_SERIES + f"out={tmp_path / 'line'}\n")
        assert main(["run", path, "--override", f"out={tmp_path / 'over'}",
                     "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "discord.csv").exists()
        assert not (tmp_path / "line").exists()
        assert not (tmp_path / "over").exists()

    def test_negative_zero_is_written_as_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, "kind=sweep-g-omega\n"
                            "sweep_values=-0, 0.5\ng_down=-0\ngamma=g\n"
                            "t_end=1e-7\ntheta_points=5\n")
        assert main(["validate", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "g_down=0.0" in lines and "sweep_values=0.0,0.5" in lines
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "g_omega_over_g=0.0").is_dir()
        rows = (tmp_path / "o" / "sweep_peak.csv").read_text().splitlines()
        assert rows[1].startswith("0.0,")
        assert not any(name.name.startswith("g_omega_over_g=-")
                       for name in (tmp_path / "o").iterdir())

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("given,key", [
        ("", "dt"), ("dt=1e-10\n", "t_end"),
        ("dt=1e-10\nt_end=1e-8\n", "record_stride")])
    def test_all_zero_scales_name_the_first_key_to_give(
            self, tmp_path, capsys, command, given, key):
        # with every coupling and rate zero the record grid has no scale
        path = write_config(tmp_path, "kind=discord-series\ng_up=0\n"
                            "g_down=0\ng_omega=0\nzeta=0\n" + given)
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} has no default here" in err and "g_up" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("override", ["g=nan", "dt=nan",
                                          "theta_points=0", "theta_points=1",
                                          "gamma=-1g"])
    def test_bad_numbers_exit_as_config_errors(self, tmp_path, capsys,
                                               command, override):
        path = write_config(tmp_path, SMALL_SERIES)
        code = main([command, path, "--out", str(tmp_path / "o"),
                     "--override", override])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["dt=1e-10\n", "t_end=1e-7\n",
                                      "record_stride=50\n",
                                      "gamma=g\ninflux_up=g\n",
                                      "gamma_phn=0.1g\n",
                                      "influx_down=0.1g\n"])
    def test_period_law_refuses_the_keys_it_cannot_honour(self, tmp_path,
                                                          capsys, text):
        # every sweep point runs closed, on the default grid of its own
        # model
        path = write_config(tmp_path, "kind=period-law\n" + text)
        assert main(["validate", path]) == 2
        assert text.split("=")[0] in capsys.readouterr().err

    def test_closed_series_without_g_up_records_the_fit_error(
            self, tmp_path, capsys):
        # one carrier period, 2 pi/g_up, has no length: the run writes
        # its series and no fit
        path = write_config(tmp_path, SMALL_SERIES + "g_up=0\n")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "discord.csv").exists()
        assert not (tmp_path / "o" / "fit.csv").exists()
        meta = (tmp_path / "o" / "run-metadata.txt").read_text().splitlines()
        assert any(line.startswith("fit_error=NoDominantFrequency: ")
                   for line in meta)

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    def test_record_grid_too_large_exits_as_config_error(self, tmp_path,
                                                         capsys, command):
        # gamma = 1e30g: dt 2e-42 and record_stride 19635 keep about 5e31
        # records
        path = write_config(tmp_path, "kind=discord-series\ngamma=1e30g\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "record_stride" in err and "t_end" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    def test_stiff_open_run_exits_as_config_error(self, tmp_path, capsys,
                                                  command):
        # rates of 1e13/s over 1e-6 s: the hops would take about 1.5e7
        # Taylor substeps, though the run keeps 11 records
        path = write_config(tmp_path, "kind=discord-series\ngamma=1e6g\n"
                            "dt=1e-7\nt_end=1e-6\nrecord_stride=1\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "gamma_up, gamma_down, gamma_phn and t_end=1e-06" in err
        assert "Taylor substeps" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # the sweep-level model, whose g_omega is its default 0.5g, would keep
    # more than MAX_RECORDS records or take more than MAX_SUBSTEPS Taylor
    # substeps; no point does, and each point checks its own model
    @pytest.mark.parametrize("text", [
        "sweep_values=1,2\ndt=1e-12\nrecord_stride=10\n",
        "sweep_values=0.1,0.2\ngamma=0.01g\nt_end=0.06\n"
        "record_stride=100000\n"], ids=["records", "substeps"])
    def test_sweep_validates_when_each_point_does(self, tmp_path, capsys,
                                                  text):
        path = write_config(tmp_path, "kind=sweep-g-omega\n" + text)
        assert main(["validate", path]) == 0
        assert "Traceback" not in capsys.readouterr().err
        sweep = resolve(text, kind="sweep-g-omega")
        shared = text.split("\n", 1)[1]  # without sweep_values
        for x, point in sweep.points:
            alone = resolve(shared + f"g_omega={x!r}g\n",
                            kind="discord-series")
            assert point.sim == alone.sim, x

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("text,start", [
        ("kind=sweep-gamma\ng_up=0\ng_down=0\nzeta=0\ng_omega=0\n",
         "TypeError: sweep-gamma needs a positive g_up"),
        ("kind=sweep-g-omega\nsweep_values=0.5,0.01\ndt=1e-11\n"
         "record_stride=1\n", "g_omega_over_g=0.01: TypeError: "
         "record_stride and t_end keep more than"),
        ("kind=sweep-g-omega\nsweep_values=0.2,0.5\ngamma=0.01g\n"
         "t_end=0.06\nrecord_stride=100000\n", "g_omega_over_g=0.5: "
         "TypeError: gamma_up, gamma_down, gamma_phn and t_end=0.06 may "
         "take 1.06e+06 Taylor substeps"),
        ("kind=sweep-gamma\nsweep_values=0.2\ntheta_points=1001\n",
         "gamma_over_g=0.2: TypeError: theta_points and phi_points give "
         "more than")],
        ids=["zero-scales", "records", "substeps", "search-grid"])
    def test_sweep_config_error_names_its_point(self, tmp_path, capsys,
                                                command, text, start):
        # a sweep checks no model of its own: the all-zero sweep lacks
        # g_up, not a dt default, and a point's limit names the point
        path = write_config(tmp_path, text)
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {start}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space"])
    def test_search_grid_too_large_exits_as_config_error(self, tmp_path,
                                                         capsys, command):
        # 1001^2 grid points, just over MAX_GRID_POINTS
        path = write_config(tmp_path, "kind=discord-series\ngamma=g\n"
                            "t_end=2e-8\ntheta_points=1001\n")
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "theta_points" in err and "phi_points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", SWEEPS)
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_sweep_without_g_up_exits_as_config_error(
            self, tmp_path, capsys, command, kind):
        path = write_config(tmp_path, f"kind={kind}\ng_up=0\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        assert "g_up" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("text,key,line", [
        ("seeds=0000010,1111111\n", "seeds", 2),
        ("space_mode=closure\nseeds=\n", "seeds", 3),
        # the standard seeds reordered: no seed order can shrink the space
        ("gamma=g\ninclude_dissipation=false\n"
         "seeds=0000110,0000010,0001010,0001110\n", "include_dissipation",
         3)], ids=["outside-table", "empty", "reordered"])
    def test_seeds_and_include_dissipation_exit_as_unknown_keys(
            self, tmp_path, capsys, command, text, key, line):
        # space_mode alone picks the space
        path = write_config(tmp_path, "kind=discord-series\n" + text)
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {key!r} (line {line})" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("key,value", [("refine", "false"),
                                           ("refine_tol", "1e-3")])
    def test_refine_keys_exit_as_unknown_keys(self, tmp_path, capsys,
                                              command, key, value):
        # the search always refines, to discord.REFINE_TOL
        path = write_config(tmp_path, "kind=discord-series\ngamma=g\n"
                            f"{key}={value}\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {key!r} (line 3)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    def test_series_refuses_sweep_values(self, tmp_path, capsys, command):
        # a discord series sweeps nothing, so it would ignore them
        path = write_config(tmp_path, "kind=discord-series\nt_end=1e-7\n"
                            "sweep_values=0.5, 2\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        assert "sweep_values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("first,second,stale", [
        ("kind=discord-series\nt_end=2e-7\ndump_rho=true\n",
         "kind=discord-series\nt_end=2e-7\ngamma=g\n", ["rho.csv"]),
        ("kind=discord-series\nzeta=0\n",
         "kind=discord-series\nzeta=0\ngamma=g\nt_end=2e-7\n", ["fit.csv"]),
        (LAW, PEAKS, ["law.csv", "sweep.csv"]),
        (PEAKS, LAW, ["sweep_peak.csv"]),
        (SERIES, ONE_PEAK, ["plot_discord.py", "plot_observables.py"]),
        (ONE_PEAK, SERIES, ["plot_sweep.py"])],
        ids=["rho", "fit", "law-then-peaks", "peaks-then-law",
             "series-then-peaks", "peaks-then-series"])
    def test_rerun_removes_the_files_it_does_not_write(
            self, tmp_path, capsys, first, second, stale):
        # the sweeps share their point directories, which the points'
        # own runs clear; a series keeps a sweep's point directories
        out = tmp_path / "o"
        for text in (first, second):
            path = write_config(tmp_path, text)
            assert main(["run", path, "--out", str(out)]) == 0
            written = capsys.readouterr().out.split()
        assert not any((out / name).exists() for name in stale)
        if SERIES in (first, second):
            assert sorted(p for p in out.iterdir() if p.is_file()) == \
                sorted(Path(p) for p in written if Path(p).parent == out)
        else:
            assert sorted(p for p in out.rglob("*") if p.is_file()) == \
                sorted(Path(p) for p in written)

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    @pytest.mark.parametrize("mode", ["table-compat", "closure"])
    @pytest.mark.parametrize("text,flags,origin", [
        ("kind=discord-series\nt_end=1e-7\n{key}=false\n", [], "line 3"),
        ("kind=sweep-g-omega\ngamma=g\n", ["--override", "{key}=true"],
         "--override")], ids=["series", "sweep"])
    @pytest.mark.parametrize("key", [field.name for field
                                     in dataclasses.fields(GatingPolicy)])
    def test_gating_keys_exit_as_unknown_keys(self, tmp_path, capsys, key,
                                              text, flags, origin, mode,
                                              command):
        # every CLI run takes the paper's gates; GatingPolicy is the
        # library's
        path = write_config(tmp_path, text.format(key=key))
        flags = [flag.format(key=key) for flag in flags]
        assert main([command, path, *flags, "--override",
                     f"space_mode={mode}", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"config error: unknown key {key!r} ({origin})\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    def test_full_space_mode_exits_as_config_error(self, tmp_path, capsys,
                                                   command):
        # the closure is exact; the 128-state space only added unreachable
        # states
        path = write_config(tmp_path, "kind=discord-series\nspace_mode=full\n")
        assert main([command, path, "--out", str(tmp_path / "o")]) == 2
        assert "space_mode='full' (line 2)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "dump-space", "run"])
    def test_config_that_is_not_utf8_exits_as_config_error(
            self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"kind=discord-series\n# \xff\n")
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_with_byte_order_mark_validates(self, tmp_path, capsys):
        text = b"kind = discord-series\ngamma = g\n"
        (tmp_path / "plain.cfg").write_bytes(text)
        (tmp_path / "marked.cfg").write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["validate", str(tmp_path / "plain.cfg")]) == 0
        plain = capsys.readouterr().out
        assert main(["validate", str(tmp_path / "marked.cfg")]) == 0
        assert capsys.readouterr().out == plain

    def test_discord_bound_violation_exits_as_numerical_error(
            self, tmp_path, capsys, monkeypatch):
        # a search minimum 10 nats too low makes J exceed I, so D < 0
        module = importlib.import_module("h2discord.discord")
        search_minimum = module._search_minimum

        def too_low(*args, **kwargs):
            value, *rest = search_minimum(*args, **kwargs)
            return value - 10.0, *rest

        monkeypatch.setattr(module, "_search_minimum", too_low)
        path = write_config(tmp_path, SMALL_SERIES + "gamma=g\n")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert "DiscordOutOfBounds" in capsys.readouterr().err
        assert not (tmp_path / "o" / "discord.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 4
