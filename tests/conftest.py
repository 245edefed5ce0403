import sys, os
sys.path.insert(0, os.path.dirname(__file__))

import functools
import time
from pathlib import Path

import pytest

from h2discord.cli import _run_series, parse_config, resolve_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the sweep configs: the period laws, whose points are the closed discord
# series of the paper's figs. 4 and 5, and the open sweeps of figs. 9-12
SWEEPS = ("fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12")


@pytest.fixture(scope="session")
def sweep_runs():
    """sweep_runs(name) -> ([(x, point config, trajectory, discord
    records)], seconds) for a config of SWEEPS, every sweep point run as
    `h2discord run` runs it; each config runs at most once a session."""
    @functools.cache
    def runs(name):
        assert name in SWEEPS, name
        started = time.time()
        config = resolve_config(parse_config(
            (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")))
        points = [(x, point, *_run_series(point))
                  for x, point in config.points]
        return points, time.time() - started

    return runs
