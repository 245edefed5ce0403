"""Check the warm-started discord series against the cold search.

    PYTHONPATH=src python tests/check_open_configs.py [CONFIG ...]

For every open config given (default: each file in configs/ with a
positive loss rate), the script computes the run's discord series as
``h2discord run`` does, then recomputes each mixed snapshot with the
cold search, ``discord()`` without a warm point.  It prints one line per
config: mixed snapshots, full-grid fallbacks, the largest |J_series -
J_cold| and the number of snapshots whose argmin angles differ.  It
exits 1 when some |J_series - J_cold| exceeds 1e-12 or an angle
differs.  pytest does not collect it; the whole set takes about half
a minute on a 2-core host.
"""

import sys
import time
from pathlib import Path

from h2discord.cli import _closed, _run_series, parse_config, \
    resolve_config
from h2discord.discord import discord

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12


def check(path: Path) -> tuple:
    """(mixed snapshots, fallbacks, max |dJ|, angle mismatches, seconds)."""
    config = resolve_config(parse_config(path.read_text(encoding="utf-8")))
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
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = []
        for path in sorted((ROOT / "configs").glob("*.cfg")):
            config = resolve_config(parse_config(path.read_text("utf-8")))
            if not _closed(config.params):
                paths.append(path)
    print("config     mixed  fallbacks  max|dJ|    angle_diffs  series_s")
    total_mixed, total_worst, total_diffs = 0, 0.0, 0
    for path in paths:
        mixed, fallbacks, worst, diffs, seconds = check(path)
        print(f"{path.stem:10s} {mixed:5d}  {fallbacks:9d}  {worst:9.2e}  "
              f"{diffs:11d}  {seconds:8.2f}")
        total_mixed += mixed
        total_worst = max(total_worst, worst)
        total_diffs += diffs
    print(f"total      {total_mixed:5d}             {total_worst:9.2e}  "
          f"{total_diffs:11d}")
    return 0 if total_worst <= TOL and total_diffs == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
