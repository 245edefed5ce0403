"""Seven-qubit photon-matter model: dynamics and quantum-discord analysis."""

__version__ = "0.1.0"

from .analysis import FitResult, envelope, fit_law, fit_sinusoid, \
    population, run_discord_series, state_population
from .discord import DiscordPoint, MeasurementConfig, SearchConfig, \
    discord, discord_series
from .dynamics import DensityMatrix, SimConfig, Trajectory, evolve, \
    initial_state
from .operators import JumpChannel, ModelParams, OperatorMatrix, \
    build_hamiltonian, build_jump_channels
from .statespace import BasisState, GatingPolicy, StateSpace, TABLE_STATES, \
    generate_space, table_space

__all__ = [
    "FitResult", "envelope", "fit_law", "fit_sinusoid", "population",
    "run_discord_series", "state_population", "DiscordPoint",
    "MeasurementConfig", "SearchConfig", "discord", "discord_series",
    "DensityMatrix", "SimConfig", "Trajectory", "evolve", "initial_state",
    "JumpChannel", "ModelParams", "OperatorMatrix", "build_hamiltonian",
    "build_jump_channels", "BasisState", "GatingPolicy", "StateSpace",
    "TABLE_STATES", "generate_space", "table_space"]
