"""Ladder operators, the system Hamiltonian and jump channels.

The Hamiltonian is written in the interaction picture: it holds the
couplings and no free terms.  That is exact for this resonant model.
Every coherent move keeps p1 + l1, p2 + l2 and m + L, so mode
frequencies would add free terms that commute with every coupling; every
jump changes one of those counts by one, so under them a jump operator
only picks up a phase.  Free terms would thus only apply the local
unitary U0(t) = exp(-i H_free t), a photon-pair part times a matter
part, which changes no population and no discord (Modi et al., Rev.
Mod. Phys. 84, 1655 (2012)).

All matrices are dense complex arrays bound to a StateSpace.  Every
mode holds at most one quantum, so raising an occupied label gives the
zero vector.  On a reduced space an image state can be missing: in
table-compat mode the corresponding amplitude is dropped, in closure
mode this signals an inconsistent space and raises.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ImageOutsideSpace
from .statespace import JUMPS, MODE_CLOSURE, MOVES, BasisState, \
    GatingPolicy, StateSpace


@dataclass(frozen=True)
class ModelParams:
    """Couplings and rates, all angular (rad/s or 1/s).

    Defaults are the CLI's model: coupling scale 1e7, no dissipation.
    """

    g_up: float = 1.0e7
    g_down: float = 1.0e7
    g_bond: float = 5.0e6
    zeta: float = 1.0e7
    gamma_up: float = 0.0
    gamma_down: float = 0.0
    gamma_phn: float = 0.0
    influx_up: float = 0.0
    influx_down: float = 0.0
    influx_phn: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    def max_scale(self) -> float:
        """Largest coupling or rate, used for step-size defaults."""
        return max(self.g_up, self.g_down, self.g_bond, self.zeta,
                   self.gamma_up, self.gamma_down, self.gamma_phn,
                   self.influx_up, self.influx_down, self.influx_phn)


@dataclass
class OperatorMatrix:
    mat: np.ndarray
    space: StateSpace


_MODE_FIELD = {jump.mode: jump.label for jump in JUMPS}


def _zeros(space):
    return np.zeros((space.size, space.size), dtype=complex)


def _target_index(space, target: BasisState, what: str):
    j = space.get_index(target)
    if j is None and space.mode == MODE_CLOSURE:
        raise ImageOutsideSpace(
            f"{what} maps into {target.to_string()}, absent from the space")
    return j


def ladder(mode: str, direction: str, space: StateSpace) -> OperatorMatrix:
    """Lowering/raising operator for one field mode."""
    if mode not in _MODE_FIELD or direction not in ("lower", "raise"):
        raise ValueError(f"unknown mode {mode!r} or direction {direction!r}")
    field, src = _MODE_FIELD[mode], int(direction == "lower")
    op = _zeros(space)
    for i, s in enumerate(space):
        if getattr(s, field) != src:
            continue  # lowering vacuum or raising past the one-quantum cap
        j = _target_index(space, s._replace(**{field: 1 - src}),
                          f"{direction} {mode}")
        if j is not None:
            op[j, i] = 1.0
    return OperatorMatrix(op, space)


def build_hamiltonian(params: ModelParams, space: StateSpace,
                      gating: GatingPolicy = None) -> OperatorMatrix:
    """Assemble the system Hamiltonian over the given space.

    Each move of MOVES with a positive strength couples its gated
    source states to their images, each entry written with its
    transpose so the matrix is exactly real symmetric, or, while its
    shift holds, adds its strength to the diagonal of the gated states.
    """
    if gating is None:
        gating = GatingPolicy()
    h = _zeros(space)
    for i, s in enumerate(space):
        for move in MOVES:
            strength = getattr(params, move.strength)
            if not (strength > 0 and move.gate(s, gating)):
                continue
            if move.shift(gating):
                h[i, i] += strength  # identity on the moved labels
            elif (target := move.step(s)) is not None:
                j = _target_index(space, target, "interaction term")
                if j is not None:
                    h[j, i] += strength
                    h[i, j] += strength
    return OperatorMatrix(h, space)


@dataclass
class JumpChannel:
    op: OperatorMatrix
    rate: float
    kind: str  # "dissipation" or "influx"
    mode_label: str


def build_jump_channels(params: ModelParams, space: StateSpace):
    """One lowering channel per positive decay rate, raising for influx."""
    channels = []
    for kind, direction, field in (("dissipation", "lower", "decay"),
                                   ("influx", "raise", "influx")):
        for jump in JUMPS:
            rate = getattr(params, getattr(jump, field))
            if rate > 0:
                op = ladder(jump.mode, direction, space)
                channels.append(JumpChannel(op, rate, kind, jump.mode))
    return channels
