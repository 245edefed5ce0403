"""The system Hamiltonian and the jump channels.

The Hamiltonian is written in the interaction picture: it holds the
couplings and no free terms.  That is exact for this resonant model.
Every coherent move keeps p1 + l1, p2 + l2 and m + L, so mode
frequencies would add free terms that commute with every coupling; every
jump changes one of those counts by one, so under them a jump operator
only picks up a phase.  Free terms would thus only apply the local
unitary U0(t) = exp(-i H_free t), a photon-pair part times a matter
part, which changes no population and no discord (Modi et al., Rev.
Mod. Phys. 84, 1655 (2012)).

The Hamiltonian is a dense complex matrix and each jump channel an
index map, both bound to a StateSpace.  Every mode holds at most one
quantum, so a raising channel skips the states that already hold one.
On a reduced space an image state can be missing: in table-compat mode
the corresponding entry is dropped, in closure mode this signals an
inconsistent space and raises.
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
    g_omega: float = 5.0e6
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
        """Largest coupling or rate (every field is one), used for
        step-size defaults."""
        return max(getattr(self, f.name) for f in fields(self))


@dataclass
class OperatorMatrix:
    mat: np.ndarray
    space: StateSpace


def _target_index(space, target: BasisState, what: str):
    j = space.get_index(target)
    if j is None and space.mode == MODE_CLOSURE:
        raise ImageOutsideSpace(
            f"{what} maps into {target.to_string()}, absent from the space")
    return j


def build_hamiltonian(params: ModelParams, space: StateSpace,
                      gating: GatingPolicy = GatingPolicy()
                      ) -> OperatorMatrix:
    """Assemble the system Hamiltonian over the given space.

    Each move of MOVES with a positive strength couples its gated
    source states to their images, each entry written with its
    transpose so the matrix is exactly real symmetric.
    """
    h = np.zeros((space.size, space.size), dtype=complex)
    for i, s in enumerate(space):
        for move in MOVES:
            strength = getattr(params, move.strength)
            if strength > 0 and move.gate(s, gating) \
                    and (target := move.step(s)) is not None:
                j = _target_index(space, target, "interaction term")
                if j is not None:
                    h[j, i] += strength
                    h[i, j] += strength
    return OperatorMatrix(h, space)


@dataclass
class JumpChannel:
    """The jump operator a = sum_k |dst_k><src_k| with its rate.

    src and dst are int arrays of space indices, each free of repeats,
    so a is a 0/1 partial permutation.
    """

    space: StateSpace
    src: np.ndarray
    dst: np.ndarray
    rate: float


def build_jump_channels(params: ModelParams, space: StateSpace):
    """One channel per positive rate: each decay of JUMPS lowers its
    mode, then each influx raises it."""
    channels = []
    for raising, field in ((False, "decay"), (True, "influx")):
        for jump in JUMPS:
            rate = getattr(params, getattr(jump, field))
            if rate <= 0:
                continue
            what = f"{field} of {jump.label}"
            pairs = [(i, _target_index(space, t, what))
                     for i, s in enumerate(space)
                     if (t := jump.step(s, raising)) is not None]
            src, dst = np.array([(i, j) for i, j in pairs if j is not None],
                                dtype=int).reshape(-1, 2).T
            channels.append(JumpChannel(space, src, dst, rate))
    return channels
