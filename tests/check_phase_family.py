"""Measure the discord that the default search's phase slice misses.

    PYTHONPATH=src python tests/check_phase_family.py [CONFIG ...]

The default search (``SearchConfig()``, ``phi_points = 1``) fixes both
measurement phases at 0, so it minimises the conditional entropy over
one slice of the four-angle family of product projective measurements
on the photon pair.  For every open run of the configs given (default:
each file in configs/), chosen and named as ``check_open_configs.py``
chooses and names them, the script computes the run's discord series as
``h2discord run`` does, and again over the four-angle family
(``phi_points = 17``, the run's other search settings kept).  It prints
one line per run: the record count, the peak D under the run's search
and under the family, and the largest D_run - D_family over the
records; then the number of runs where the family finds a lower D, and
where it finds a higher one, by more than 1e-12 nats.  Closed runs are
skipped: their states stay pure, where D = S_A whatever the
measurement.  pytest does not collect it; the whole set takes about
two minutes on a 2-core host.
"""

import dataclasses
import sys
from pathlib import Path

from check_open_configs import ROOT, runs
from h2discord.cli import _closed, _run_series
from h2discord.discord import discord_series

PHI_POINTS = 17
TOL = 1e-12


def main(argv) -> int:
    paths = [Path(arg) for arg in argv] \
        or sorted((ROOT / "configs").glob("*.cfg"))
    print(f"run        records  peak_D     peak_D_phi{PHI_POINTS}  max_gap")
    lower, higher = 0, 0
    for name, config in (each for path in paths for each in runs(path)):
        if _closed(config.params):
            continue
        traj, points = _run_series(config)
        family = discord_series(
            [traj.density(i) for i in range(len(traj))],
            dataclasses.replace(config.search, phi_points=PHI_POINTS),
            [float(t) for t in traj.times])
        gaps = [pt.discord - other.discord
                for pt, other in zip(points, family)]
        lower += max(gaps) > TOL
        higher += min(gaps) < -TOL
        print(f"{name:10s} {len(points):7d}  "
              f"{max(pt.discord for pt in points):9.4f}  "
              f"{max(pt.discord for pt in family):12.4f}  "
              f"{max(gaps):9.2e}")
    print(f"family lower at {lower} runs, higher at {higher}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
