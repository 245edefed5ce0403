"""Write tests/reproduction.json, the pinned figures of the reproduction.

    PYTHONPATH=src python tests/pin_reproduction.py

Every sweep point of the six sweep configs runs as ``h2discord run``
runs it, the way the ``sweep_runs`` fixture of conftest.py runs it.  Per
point the file holds the record count and, for every column of
``discord.csv`` and ``observables.csv``, the column's sum, its largest
value and its final value; a closed point adds its fitted period, and
a period law adds its c.  ``test_reproduction.py`` compares a session's
runs with the file.  A change that moves a figure on purpose rewrites
the file with this script and says which figures moved.  pytest does
not collect it.
"""

import json
import re
import sys
from pathlib import Path

from h2discord.analysis import OBSERVABLES, fit_law, fit_period, \
    observables
from h2discord.cli import _closed, _run_series, parse_config, \
    resolve_config
from h2discord.discord import DiscordPoint

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
PINNED = Path(__file__).resolve().parent / "reproduction.json"
# the period laws, whose points are the closed discord series of the
# paper's figs. 4 and 5, and the open sweeps of figs. 9-12
SWEEPS = ("fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12")


def sweep_points(name: str) -> list:
    """[(x, point config, trajectory, discord records)] of a sweep
    config of SWEEPS, each point run as `h2discord run` runs it."""
    config = resolve_config(parse_config(
        (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")))
    return [(x, point, *_run_series(point)) for x, point in config.points]


def _columns(header, rows) -> dict:
    """{column: [sum, largest, final]} of a CSV's header and rows."""
    columns = zip(*rows, strict=True)
    return {name: [float(sum(values)), float(max(values)), float(values[-1])]
            for name, values in zip(header, columns, strict=True)}


def figures(points: list) -> dict:
    """The pinned figures of one sweep config from its `sweep_points`."""
    pinned, periods = {}, []
    for x, point, traj, records in points:
        entry = {"records": len(records),
                 "discord.csv": _columns(
                     DiscordPoint.CSV_HEADER.split(","),
                     [pt.row() for pt in records]),
                 "observables.csv": _columns(OBSERVABLES,
                                             observables(traj))}
        if _closed(point.params):
            fit, _ = fit_period([pt.t for pt in records],
                                [pt.discord for pt in records],
                                point.params.zeta, point.params.g_up)
            entry["period"] = fit.period
            periods.append((x, fit.period))
        pinned[repr(x)] = entry
    if periods:  # a period law: every point is closed
        return {"points": pinned, "c": fit_law(periods)[0]}
    return {"points": pinned}


def main() -> int:
    pinned = {name: figures(sweep_points(name)) for name in SWEEPS}
    # one line per column's [sum, largest, final]
    text = re.sub(r"\[[^][{}]*\]", lambda m: json.dumps(json.loads(m[0])),
                  json.dumps(pinned, indent=1))
    PINNED.write_text(text + "\n", encoding="utf-8")
    print(PINNED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
