"""Observables, the standard run and its default record grid, sinusoid and
period fits, and the fit of the period-versus-coupling law."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discord import SearchConfig, discord_series
from .dynamics import DensityMatrix, SimConfig, Trajectory, evolve, \
    initial_state
from .errors import InsufficientData, NoDominantFrequency, WindowTooLarge
from .operators import ModelParams, build_hamiltonian, build_jump_channels
from .statespace import MOVES, RATES, BasisState, GatingPolicy, \
    StateSpace, table_space

PREDICATES = {
    "bond_formed": lambda s: s.L == 0,
    "bond_broken": lambda s: s.L == 1,
    "photons_zero": lambda s: s.p1 + s.p2 == 0,
    "photons_present": lambda s: s.p1 + s.p2 >= 1,
}


def population(rho: DensityMatrix, predicate) -> float:
    """Diagonal weight on the states satisfying the predicate."""
    if isinstance(predicate, str):
        predicate = PREDICATES[predicate]
    diag = rho.mat.diagonal().real
    return float(sum(w for s, w in zip(rho.space, diag) if predicate(s)))


def state_population(rho: DensityMatrix, state: BasisState) -> float:
    idx = rho.space.get_index(state)
    if idx is None:
        return 0.0
    return float(rho.mat[idx, idx].real)


OBSERVABLES = ("t", *(f"pop_{name}" for name in PREDICATES),
               "pop_0000000", "trace", "purity")
_VACUUM = BasisState.from_string("0000000")


def observables(traj: Trajectory) -> list:
    """One row of the OBSERVABLES columns per record of the trajectory."""
    rows = []
    for i, t in enumerate(traj.times):
        rho = traj.density(i)
        rows.append([float(t)]
                    + [population(rho, name) for name in PREDICATES]
                    + [state_population(rho, _VACUUM), rho.trace(),
                       rho.purity()])
    return rows


@dataclass
class FitResult:
    amplitude: float
    angular_frequency: float
    phase: float
    offset: float
    period: float
    rms_residual: float


def _projection(times, values, b):
    """The linear parameters (sin, cos, offset) at angular frequency b,
    the RMS residual, and the variable-projection slope dRSS/db.

    With the linear parameters c projected out, r = y - A(b) c is
    orthogonal to the columns of A, so dRSS/db = -2 r^T (dA/db) c
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).
    """
    sin, cos = np.sin(b * times), np.cos(b * times)
    design = np.column_stack([sin, cos, np.ones_like(times)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = values - design @ coef
    slope = -2.0 * float(residual @ (times * (coef[0] * cos - coef[1] * sin)))
    return coef, float(np.sqrt(np.mean(residual**2))), slope


def _median_spacing(times) -> float:
    """np.median(np.diff(times)), bit for bit, without the numpy.ma
    import that np.median makes."""
    gaps = np.sort(np.diff(times))
    mid = gaps.size // 2
    if gaps.size % 2:
        return float(gaps[mid])
    return float((gaps[mid - 1] + gaps[mid]) / 2)


# coarse samples of the residual across the bracket; the residual's
# features are about one spectral bin wide, the samples 3/32 bin apart
_BASIN_SAMPLES = 33


def fit_sinusoid(times, values) -> FitResult:
    """Least-squares fit of a*sin(b*t + c) + d.

    The angular frequency starts from the dominant discrete-spectrum
    peak of the mean-removed series.  Within 1.5 spectral bins of that
    peak, coarse samples of the residual pick the basin of the minimum,
    and bisection of the variable-projection slope dRSS/db (the linear
    parameters re-solved at every trial frequency) locates its root to
    machine precision.  A slope root is well-conditioned where the flat
    residual minimum is not, so b moves with the data, not with rounding.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 8:
        raise InsufficientData(f"need >= 8 samples, got {times.size}")
    centered = values - values.mean()
    if np.abs(centered).max() <= 1e-15 * max(1.0, np.abs(values).max()):
        raise NoDominantFrequency("series is constant")
    spectrum = np.abs(np.fft.rfft(centered))
    dt = _median_spacing(times)
    freqs = np.fft.rfftfreq(times.size, d=dt)
    peak = 1 + int(np.argmax(spectrum[1:]))
    if spectrum[peak] <= 1e-12 * times.size:
        raise NoDominantFrequency("no oscillating component")
    b0 = 2 * np.pi * freqs[peak]
    # true frequency sits within one spectral bin of the peak
    bin_width = 2 * np.pi / (times[-1] - times[0])
    grid = np.linspace(max(0.25 * bin_width, b0 - 1.5 * bin_width),
                       b0 + 1.5 * bin_width, _BASIN_SAMPLES)
    best = int(np.argmin([_projection(times, values, b)[1] for b in grid]))
    # bisect the slope's sign change between the neighbours of the lowest
    # sample; a minimum on an end of the range, where the slope keeps one
    # sign, ends the search on that end
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _projection(times, values, mid)[2] < 0:
            lo = mid
        else:
            hi = mid
    b = float(min((lo, hi), key=lambda x: _projection(times, values, x)[1]))
    (a_sin, a_cos, offset), rms, _ = _projection(times, values, b)
    amplitude = float(np.hypot(a_sin, a_cos))
    phase = float(np.arctan2(a_cos, a_sin))
    return FitResult(amplitude=amplitude, angular_frequency=b, phase=phase,
                     offset=float(offset), period=2 * np.pi / b,
                     rms_residual=rms)


def envelope(times, values, window: int):
    """Centered sliding-window maxima; output length n - window + 1."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd sample count")
    if window > values.size:
        raise WindowTooLarge(f"window {window} > series length {values.size}")
    if window == 1:
        return times.copy(), values.copy()
    peaks = np.lib.stride_tricks.sliding_window_view(values, window).max(-1)
    half = (window - 1) // 2
    return times[half:times.size - half], peaks


def fit_period(times, series, zeta: float, g_ref: float):
    """Fit the slow oscillation of a closed-run discord series.

    For zeta = 0 the series is fitted directly.  Otherwise tunneling adds
    a fast carrier, and the fit runs on the envelope: sliding maxima over
    the odd sample count nearest one carrier period 2 pi/g_ref, which
    g_ref = 0 leaves undefined (NoDominantFrequency).  Returns (fit,
    window used), the window 0 for a direct fit.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if zeta <= 0:
        return fit_sinusoid(times, series), 0
    if g_ref <= 0:
        raise NoDominantFrequency("g_ref=0 gives no carrier period for "
                                  "the envelope")
    spacing = _median_spacing(times)
    window = max(1, int(round((2 * np.pi / g_ref) / spacing)))
    if window % 2 == 0:
        window += 1
    return fit_sinusoid(*envelope(times, series, window)), window


def default_dt(params: ModelParams) -> float:
    """Default step, which with record_stride fixes a run's record grid.

    1e-3 of the fastest scale, and for damped runs at most 2e-5 of the
    largest rate.  The exact propagators are independent of the step,
    so the rule only sets the record grid of every config that leaves
    dt unset; it does not guard positivity.
    """
    dt = 1e-3 / params.max_scale()
    max_rate = max(getattr(params, name) for name in RATES)
    if max_rate > 0:
        dt = min(dt, 2e-5 / max_rate)
    return dt


def default_t_end(params: ModelParams, periods_factor: float) -> float:
    """periods_factor periods of the slowest active coupling."""
    couplings = [v for v in (getattr(params, move.strength)
                             for move in MOVES) if v > 0]
    slowest = min(couplings) if couplings else params.max_scale()
    return periods_factor * 2 * np.pi / slowest


def default_record_stride(params: ModelParams, dt: float) -> int:
    """Steps between records for a spacing of pi/(8 max scale).

    That resolves the fast carrier (scale ~2 max coupling), so the
    envelope of a discord series can track it.  ValueError when the
    spacing is not a finite number of steps.
    """
    steps = np.pi / (8 * params.max_scale()) / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt={dt!r} gives no finite record spacing")
    return max(1, int(round(steps)))


def evolve_model(params: ModelParams, sim: SimConfig,
                 space: Optional[StateSpace] = None,
                 gating: GatingPolicy = GatingPolicy()) -> Trajectory:
    """Evolve the standard initial state under the model's Hamiltonian and
    loss channels on `space` (the 26-state table by default)."""
    if space is None:
        space = table_space()
    h = build_hamiltonian(params, space, gating)
    channels = build_jump_channels(params, space)
    return evolve(initial_state(space), h, channels, sim)


def run_discord_series(params: ModelParams, sim: SimConfig,
                       space: Optional[StateSpace] = None,
                       gating: GatingPolicy = GatingPolicy(),
                       search: SearchConfig = SearchConfig()):
    """Evolve the standard initial state and compute discord at every
    record.

    Returns (trajectory, discord points).  The points come from
    `discord_series`: each mixed snapshot's search starts from the last
    mixed snapshot's argmin when a 5x5 guard grid of the search's family
    finds nothing better more than one guard spacing from it, and
    searches the full grid otherwise (always, for the first mixed
    snapshot).  The pattern search then tries every step size in one
    batch, so a point it cannot improve costs one batch more.
    """
    traj = evolve_model(params, sim, space, gating)
    points = discord_series([traj.density(i) for i in range(len(traj))],
                            search, [float(t) for t in traj.times])
    return traj, points


def fit_law(samples) -> tuple:
    """Least-squares c of T = c / x over (x, period) samples, with the
    RMS residual of the periods; x is g_omega in units of g_up."""
    xs = np.array([x for x, _ in samples])
    periods = np.array([p for _, p in samples])
    constant = float((periods / xs).sum() / (1.0 / xs**2).sum())
    residual = float(np.sqrt(np.mean((periods - constant / xs) ** 2)))
    return constant, residual
