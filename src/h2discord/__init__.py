"""Seven-qubit photon-matter model: dynamics and quantum-discord analysis."""

__version__ = "0.1.0"

from .analysis import FitResult, PeriodLawResult, envelope, fit_sinusoid, \
    period_law, population, run_discord_series, state_population
from .discord import DiscordPoint, MeasurementConfig, ProjectorSet, \
    SearchConfig, classical_correlation, discord, discord_series, \
    measured_conditional_entropy, mutual_information, partial_trace_A, \
    partial_trace_B, projector_set, von_neumann_entropy
from .dynamics import DensityMatrix, SimConfig, Trajectory, dissipator, \
    evolve, initial_state, make_propagator
from .operators import JumpChannel, ModelParams, OperatorMatrix, \
    build_hamiltonian, build_jump_channels, flip, ladder, total_excitations
from .statespace import BasisState, GatingPolicy, StateSpace, TABLE_STATES, \
    decode, encode, full_space, generate_space, split_labels, table_space

__all__ = [name for name in dir() if not name.startswith("_")]
