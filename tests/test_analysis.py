import dataclasses
from pathlib import Path

import numpy as np
import pytest

from h2discord.analysis import _median_spacing, default_dt, envelope, \
    fit_period, fit_sinusoid, population, run_discord_series, \
    state_population
from h2discord.cli import parse_config, resolve_config, run
from h2discord.dynamics import DensityMatrix, SimConfig, initial_state
from h2discord.errors import ConfigTypeError, InsufficientData, \
    NoDominantFrequency, WindowTooLarge
from h2discord.operators import ModelParams
from h2discord.statespace import BasisState, table_space
from oracles import reference_fit_sinusoid

PARAMS = ModelParams()
G = PARAMS.g_up


class TestPopulation:
    def test_initial_state_is_diatomic(self):
        rho = initial_state(table_space())
        assert population(rho, "bond_broken") == pytest.approx(1.0)
        assert population(rho, "photons_zero") == pytest.approx(1.0)

    def test_partition_identities(self):
        rng = np.random.default_rng(2)
        sp = table_space()
        raw = rng.normal(size=(26, 26)) + 1j * rng.normal(size=(26, 26))
        mat = raw @ raw.conj().T
        rho = DensityMatrix(mat / mat.trace(), sp)
        assert population(rho, "bond_formed") + \
            population(rho, "bond_broken") == pytest.approx(1.0, abs=1e-9)
        assert population(rho, "photons_zero") + \
            population(rho, "photons_present") == pytest.approx(1.0, abs=1e-9)

    def test_linear_in_state(self):
        sp = table_space()
        rho1 = initial_state(sp)
        rho2 = DensityMatrix(np.eye(26, dtype=complex) / 26, sp)
        mix = DensityMatrix(0.3 * rho1.mat + 0.7 * rho2.mat, sp)
        for kind in ("bond_formed", "photons_present"):
            expected = 0.3 * population(rho1, kind) + \
                0.7 * population(rho2, kind)
            assert population(mix, kind) == pytest.approx(expected, abs=1e-12)

    def test_state_population(self):
        sp = table_space()
        rho = initial_state(sp)
        assert state_population(
            rho, BasisState.from_string("0000010")) == pytest.approx(0.25)
        assert state_population(
            rho, BasisState.from_string("0000000")) == 0.0


class TestFitSinusoid:
    def test_exact_recovery(self):
        times = np.linspace(0, 2.5e-5, 200)
        values = 0.3 * np.sin(2 * np.pi * 1e5 * times) + 0.3
        fit = fit_sinusoid(times, values)
        assert abs(fit.period - 1e-5) / 1e-5 < 1e-3
        assert fit.amplitude == pytest.approx(0.3, rel=1e-3)
        assert fit.offset == pytest.approx(0.3, abs=1e-3)
        assert fit.rms_residual < 1e-6
        assert fit.period == pytest.approx(2 * np.pi / fit.angular_frequency)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(17)
        times = np.linspace(0, 2.5e-5, 200)
        values = 0.3 * np.sin(2 * np.pi * 1e5 * times) + 0.3 \
            + rng.uniform(-0.01, 0.01, size=200)
        fit = fit_sinusoid(times, values)
        assert abs(fit.period - 1e-5) / 1e-5 < 1e-2

    def test_constant_series(self):
        times = np.linspace(0, 1, 64)
        with pytest.raises(NoDominantFrequency):
            fit_sinusoid(times, np.full(64, 0.25))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData):
            fit_sinusoid(np.arange(5.0), np.arange(5.0))

    # an odd count of gaps takes the middle one, an even count the mean
    # of the two middle ones
    @pytest.mark.parametrize("extra", [0, 1], ids=["odd", "even"])
    def test_median_spacing_is_np_median(self, extra):
        rng = np.random.default_rng(41)
        for n in range(4 + extra, 200, 2):
            times = np.cumsum(rng.uniform(1e-10, 3e-9, size=n))
            assert _median_spacing(times) == np.median(np.diff(times))


# the closed reproduction runs whose discord series the CLI fits: the
# sweep points of the period laws, as (law config, g_omega/g_up)
LAWS = ("fig8a", "fig8b")
FIT_POINTS = [(law, x) for law in LAWS
              for x in (0.01, 0.02, 0.05, 0.1, 0.2)]


@pytest.fixture(scope="module")
def discord_series(sweep_runs):
    """{(law, x): (times, D, zeta, g_up, envelope window)} as the CLI
    fits them."""
    series = {}
    for law in LAWS:
        for x, config, _, points in sweep_runs(law)[0]:
            times = np.array([pt.t for pt in points])
            values = np.array([pt.discord for pt in points])
            params = config.params
            _, window = fit_period(times, values, params.zeta, params.g_up)
            series[law, x] = (times, values, params.zeta, params.g_up,
                              window)
    return series


def _noisy_sinusoid(seed):
    """A seeded sinusoid of 1.2-12 periods and amplitude 0.05-1, random
    phase and offset, under Gaussian noise of standard deviation
    0.001-0.3."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0, 1e-5, int(rng.integers(16, 800)))
    b = 2 * np.pi * rng.uniform(1.2, 12) / 1e-5
    values = rng.uniform(0.05, 1) * np.sin(b * times + rng.uniform(0, 6.3)) \
        + rng.uniform(-1, 1) + rng.uniform(0.001, 0.3) \
        * rng.normal(size=times.size)
    return times, values


def _assert_matches_reference(times, values):
    fit = fit_sinusoid(times, values)
    ref = reference_fit_sinusoid(times, values)
    assert fit.period == pytest.approx(ref.period, rel=1e-7, abs=0)
    assert fit.angular_frequency == pytest.approx(ref.angular_frequency,
                                                  rel=1e-7, abs=0)
    assert fit.rms_residual <= ref.rms_residual * (1 + 1e-15)


class TestVariableProjectionFit:
    """The slope-root fit against the bounded residual search it
    replaced, and its stability under rounding-sized changes of D."""

    @pytest.mark.parametrize("law,x", FIT_POINTS)
    def test_matches_reference_on_reproduction_series(self, discord_series,
                                                       law, x):
        times, values, _, _, window = discord_series[law, x]
        if window:
            times, values = envelope(times, values, window)
        _assert_matches_reference(times, values)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_noisy_sinusoids(self, seed):
        _assert_matches_reference(*_noisy_sinusoid(seed))

    # fig8a points are fitted on the envelope, fig8b points directly; the
    # bounded search moved the fig8a x = 0.2 period by 2.5e-12 under such
    # changes
    @pytest.mark.parametrize("law,x", [("fig8a", 0.2), ("fig8a", 0.02),
                                       ("fig8b", 0.1), ("fig8b", 0.01)])
    def test_period_stable_under_last_digit_changes_of_d(self,
                                                         discord_series,
                                                         law, x):
        times, values, zeta, g_up, _ = discord_series[law, x]
        period = fit_period(times, values, zeta, g_up)[0].period
        rng = np.random.default_rng(0)
        for _ in range(3):
            nudged = values + rng.choice([-1e-15, 1e-15], size=values.size)
            fit, _ = fit_period(times, nudged, zeta, g_up)
            assert fit.period == pytest.approx(period, rel=1e-12, abs=0)


class TestEnvelope:
    def test_window_one_is_identity(self):
        times = np.linspace(0, 1, 30)
        values = np.sin(times)
        t2, v2 = envelope(times, values, 1)
        assert np.array_equal(t2, times)
        assert np.array_equal(v2, values)

    def test_rectified_carrier(self):
        omega = 2 * np.pi * 1e6
        times = np.linspace(0, 4 * np.pi / omega, 1001)
        values = np.abs(np.sin(omega * times))
        spacing = times[1] - times[0]
        window = int(round((np.pi / omega) / spacing)) | 1
        _, v2 = envelope(times, values, window)
        assert np.all(v2 > 0.98)

    def test_monotone_series(self):
        times = np.arange(20.0)
        values = times**2
        t2, v2 = envelope(times, values, 5)
        assert np.array_equal(v2, values[4:])
        assert np.array_equal(t2, times[2:-2])

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            envelope(np.arange(5.0), np.arange(5.0), 7)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            envelope(np.arange(10.0), np.arange(10.0), 4)


class TestFitPeriod:
    TIMES = np.arange(2000) * 1e-9
    # a slow oscillation under a rectified fast carrier of period 100 dt
    SERIES = (1.5 + np.sin(1e7 * TIMES)) \
        * np.abs(np.sin(np.pi * TIMES / 1e-7))

    def test_direct_fit_without_tunneling(self):
        fit, window = fit_period(self.TIMES, self.SERIES, 0.0, G)
        assert window == 0
        assert fit == fit_sinusoid(self.TIMES, self.SERIES)

    def test_envelope_window_spans_one_carrier_period(self):
        fit, window = fit_period(self.TIMES, self.SERIES, G,
                                 2 * np.pi / 1e-7)
        assert window == 101
        assert fit == fit_sinusoid(*envelope(self.TIMES, self.SERIES, 101))
        assert fit.angular_frequency == pytest.approx(1e7, rel=1e-2)

    def test_zero_reference_coupling_gives_no_envelope(self):
        # the carrier period 2 pi/g_ref is undefined
        with pytest.raises(NoDominantFrequency, match="g_ref"):
            fit_period(self.TIMES, self.SERIES, G, 0.0)


class TestDefaultDt:
    @pytest.mark.parametrize("rate", [0.3 * G, 30 * G], ids=["slow", "fast"])
    @pytest.mark.parametrize("name", ["gamma_up", "gamma_down", "gamma_phn",
                                      "influx_up", "influx_down",
                                      "influx_phn"])
    def test_each_rate_bounds_the_step(self, name, rate):
        params = dataclasses.replace(PARAMS, **{name: rate})
        assert default_dt(params) \
            == min(1e-3 / params.max_scale(), 2e-5 / rate)


class TestRunDiscordSeries:
    def test_series_timing(self):
        # one discord point per record
        params = dataclasses.replace(PARAMS, g_omega=0.1 * G)
        sim = SimConfig(dt=1e-10, t_end=4e-8, record_stride=40)
        traj, points = run_discord_series(params, sim)
        assert [pt.t for pt in points] == list(traj.times)


class TestPeriodLaw:
    @staticmethod
    def law(out: Path, text: str):
        """(period of the one sweep point, run-metadata) of a period-law
        run of the config text."""
        run(resolve_config(parse_config("kind=period-law\n" + text)), out)
        header, row = (out / "sweep.csv").read_text().splitlines()
        point = dict(zip(header.split(","), row.split(",")))
        meta = dict(line.split("=", 1) for line in
                    (out / "run-metadata.txt").read_text().splitlines())
        return float(point["fitted_period_s"]), meta

    def test_rejects_bad_values(self, tmp_path):
        for values in ("0,0.1", "2"):
            with pytest.raises(ConfigTypeError, match="sweep_values"):
                self.law(tmp_path, f"sweep_values={values}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_rejects_zero_reference_coupling(self, tmp_path):
        with pytest.raises(ConfigTypeError, match="g_up"):
            self.law(tmp_path, "sweep_values=0.1\ng_up=0\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_scale_invariance(self, tmp_path):
        period, meta = self.law(tmp_path / "g", "sweep_values=0.1\n")
        doubled, _ = self.law(tmp_path / "2g", "sweep_values=0.1\ng=2e7\n")
        assert doubled / period == pytest.approx(0.5, rel=1e-2)
        assert meta["fit_on_envelope"] == "True"

    def test_rejects_an_influx_rate(self, tmp_path):
        # the law is fitted on closed runs; influx alone makes a run open
        with pytest.raises(ConfigTypeError, match=r"got influx_phn:"):
            self.law(tmp_path, "sweep_values=0.2\nzeta=0\n"
                               "influx_phn=0.1g\n")
        assert not (tmp_path / "sweep.csv").exists()
