"""Check the warm-started discord series against the cold search.

    PYTHONPATH=src python tests/check_open_configs.py [CONFIG ...]

For every open run of the configs given (default: each file in
configs/), that is each sweep point or each config that is not a sweep,
with a positive loss or influx rate, the script computes the run's
discord series as ``h2discord run`` does, then recomputes each mixed
snapshot with the cold search, ``discord()`` without a warm point.  It
prints one line per run (``fig9/0.1`` is the ``g_omega_over_g=0.1/``
point of ``fig9``), and their total: mixed snapshots, full-grid
fallbacks, snapshots whose refinement moved the search's start, argmins
at the all-zero corner, the number of snapshots whose argmin angles
differ and the largest |J_series - J_cold|.  It exits 1 when some
|J_series - J_cold| exceeds 1e-12 or an angle differs.  pytest does
not collect it; the whole set takes about half a minute on a 2-core
host.
"""

import sys
import time
from pathlib import Path

from h2discord.cli import _closed, _run_series, parse_config, \
    resolve_config
from h2discord.discord import discord

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12
ROW = "{:10s} {:5d}  {:9d}  {:5d}  {:7d}  {:11d}  {:9.2e}"


def runs(path: Path) -> list:
    """(name, config) of each run a config makes: its sweep points, or
    the config itself."""
    config = resolve_config(parse_config(path.read_text(encoding="utf-8")))
    return [(f"{path.stem}/{x!r}", point)
            for x, point in config.points] or [(path.stem, config)]


def check(config) -> tuple:
    """(mixed snapshots, fallbacks, refine moves, corner argmins, angle
    mismatches, max |dJ|, seconds), each over the mixed snapshots."""
    started = time.perf_counter()
    traj, points = _run_series(config)
    elapsed = time.perf_counter() - started
    index = {float(t): i for i, t in enumerate(traj.times)}
    mixed = [pt for pt in points if not pt.pure]
    worst, mismatches = 0.0, 0
    for pt in mixed:
        cold = discord(traj.density(index[pt.t]), config.search, pt.t)
        worst = max(worst, abs(pt.classical_corr - cold.classical_corr))
        mismatches += pt.argmin_config != cold.argmin_config
    fallbacks = sum(pt.full_grid for pt in mixed)
    moves = sum(pt.refine_moved for pt in mixed)
    corners = sum(not any(pt.argmin_config) for pt in mixed)
    return len(mixed), fallbacks, moves, corners, mismatches, worst, elapsed


def main(argv) -> int:
    paths = [Path(arg) for arg in argv] \
        or sorted((ROOT / "configs").glob("*.cfg"))
    print("run        mixed  fallbacks  moves  corners  angle_diffs  "
          "max|dJ|    series_s")
    totals, worst = [0, 0, 0, 0, 0], 0.0
    for name, config in (each for path in paths for each in runs(path)):
        if _closed(config.params):
            continue
        *counts, run_worst, seconds = check(config)
        print(ROW.format(name, *counts, run_worst) + f"  {seconds:8.2f}")
        totals = [a + b for a, b in zip(totals, counts)]
        worst = max(worst, run_worst)
    print(ROW.format("total", *totals, worst))
    return 0 if worst <= TOL and totals[-1] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
