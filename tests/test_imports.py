"""Importing the package, validating a config, closed runs and open runs
load numpy only: no scipy module is imported anywhere in the package,
and no numpy.ma.  The package exports an explicit list of names."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, sys

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

import h2discord
from h2discord.cli import main

closed = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", closed]) == 0
    assert main(["run", closed, "--out", sys.argv[2]]) == 0
assert not scipy_modules(), scipy_modules()
assert "numpy.ma" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", closed, "--out", sys.argv[3],
                 "--override", "gamma=g"]) == 0
assert not scipy_modules(), scipy_modules()
assert "numpy.ma" not in sys.modules
"""


def test_runs_load_no_scipy(tmp_path):
    config = tmp_path / "closed.cfg"
    # without tunneling the fit runs on the series itself
    config.write_text("kind=discord-series\nzeta=0\ng_omega=0.1g\n"
                      "t_end=3e-7\ndt=1e-10\nrecord_stride=150\n"
                      "theta_points=5\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(tmp_path / "closed"),
         str(tmp_path / "open")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "closed" / "fit.csv").exists()
    assert (tmp_path / "open" / "discord.csv").exists()


def test_package_exports_the_explicit_list():
    import h2discord
    assert h2discord.__all__ == [
        "FitResult", "envelope", "fit_law", "fit_sinusoid", "population",
        "run_discord_series", "state_population", "DiscordPoint",
        "MeasurementConfig", "SearchConfig", "discord", "discord_series",
        "DensityMatrix", "SimConfig", "Trajectory", "evolve",
        "initial_state", "JumpChannel", "ModelParams", "OperatorMatrix",
        "build_hamiltonian", "build_jump_channels", "BasisState",
        "GatingPolicy", "StateSpace", "TABLE_STATES", "generate_space",
        "table_space"]
    # no submodule: h2discord.discord is the function
    assert not [name for name in h2discord.__all__
                if inspect.ismodule(getattr(h2discord, name))]
