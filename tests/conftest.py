import sys, os
sys.path.insert(0, os.path.dirname(__file__))

import functools
import time

import pytest

from pin_reproduction import SWEEPS, sweep_points


@pytest.fixture(scope="session")
def sweep_runs():
    """sweep_runs(name) -> ([(x, point config, trajectory, discord
    records)], seconds) for a config of SWEEPS, every sweep point run as
    `h2discord run` runs it; each config runs at most once a session."""
    @functools.cache
    def runs(name):
        assert name in SWEEPS, name
        started = time.time()
        points = sweep_points(name)
        return points, time.time() - started

    return runs
