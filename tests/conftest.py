import sys, os
sys.path.insert(0, os.path.dirname(__file__))

import time
from pathlib import Path

import pytest

from h2discord.cli import _run_series, _sweep_points, parse_config, \
    resolve_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the period-law configs, whose sweep points are the closed discord series
# of the paper's figs. 4 and 5
LAWS = ("fig8a", "fig8b")


@pytest.fixture(scope="session")
def law_runs():
    """{law: ([(x, point config, trajectory, discord records)], seconds)}
    for each of LAWS, every sweep point run as `h2discord run` runs it."""
    runs = {}
    for name in LAWS:
        started = time.time()
        config = resolve_config(parse_config(
            (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")))
        points = [(x, point, *_run_series(point))
                  for x, point in _sweep_points(config)]
        runs[name] = (points, time.time() - started)
    return runs
