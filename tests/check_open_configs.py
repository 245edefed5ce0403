"""Check the warm-started discord series against the cold search.

    PYTHONPATH=src python tests/check_open_configs.py [CONFIG ...]

For every open run of the configs given (default: each file in
configs/), that is each sweep point or each config that is not a sweep,
with a positive loss or influx rate, the script computes the run's
discord series as ``h2discord run`` does, then recomputes each mixed
snapshot with the cold search, ``discord()`` without a warm point.  It
prints one line per run (``fig9/0.1`` is the ``g_omega_over_g=0.1/``
point of ``fig9``): mixed snapshots, full-grid fallbacks, the largest
|J_series - J_cold| and the number of snapshots whose argmin angles
differ.  It exits 1 when some |J_series - J_cold| exceeds 1e-12 or an
angle differs.  pytest does not collect it; the whole set takes about
half a minute on a 2-core host.
"""

import sys
import time
from pathlib import Path

from h2discord.cli import _closed, _run_series, parse_config, \
    resolve_config
from h2discord.discord import discord

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12


def runs(path: Path) -> list:
    """(name, config) of each run a config makes: its sweep points, or
    the config itself."""
    config = resolve_config(parse_config(path.read_text(encoding="utf-8")))
    return [(f"{path.stem}/{x!r}", point)
            for x, point in config.points] or [(path.stem, config)]


def check(config) -> tuple:
    """(mixed snapshots, fallbacks, max |dJ|, angle mismatches, seconds)."""
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
    fallbacks = sum(pt.full_grid for pt in points)
    return len(mixed), fallbacks, worst, mismatches, elapsed


def main(argv) -> int:
    paths = [Path(arg) for arg in argv] \
        or sorted((ROOT / "configs").glob("*.cfg"))
    print("run        mixed  fallbacks  max|dJ|    angle_diffs  series_s")
    total_mixed, total_worst, total_diffs = 0, 0.0, 0
    for name, config in (each for path in paths for each in runs(path)):
        if _closed(config.params):
            continue
        mixed, fallbacks, worst, diffs, seconds = check(config)
        print(f"{name:10s} {mixed:5d}  {fallbacks:9d}  {worst:9.2e}  "
              f"{diffs:11d}  {seconds:8.2f}")
        total_mixed += mixed
        total_worst = max(total_worst, worst)
        total_diffs += diffs
    print(f"total      {total_mixed:5d}             {total_worst:9.2e}  "
          f"{total_diffs:11d}")
    return 0 if total_worst <= TOL and total_diffs == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
