"""Seven-qubit occupation-number basis and reachable-state generation.

A basis configuration carries seven binary labels in the fixed order
(p1, p2, m, l1, l2, L, k): two photon modes, one phonon mode, two
electron orbitals (1 = excited), the covalent-bond flag (0 = formed,
1 = broken) and the nuclear-position flag (0 = same cavity,
1 = different cavities).  The first two labels form the observed
photon pair A, the remaining five the matter subsystem B.

Every space orders its states by ascending label tuple, p1 first: the
order of the 7-bit numbers the labels spell with p1 as the most
significant bit.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import EmptySeeds, SeedOutsideCompatTable

N_QUBITS = 7

MODE_CLOSURE = "closure"
MODE_TABLE = "table-compat"


class BasisState(NamedTuple):
    p1: int
    p2: int
    m: int
    l1: int
    l2: int
    L: int
    k: int

    @classmethod
    def from_string(cls, bits: str) -> "BasisState":
        if len(bits) != N_QUBITS or set(bits) - {"0", "1"}:
            raise ValueError(f"need a 7-character bitstring, got {bits!r}")
        return cls(*(int(c) for c in bits))

    def to_string(self) -> str:
        return "".join(str(bit) for bit in self)

    def b_label(self) -> tuple:
        return (self.m, self.l1, self.l2, self.L, self.k)


@dataclass(frozen=True)
class GatingPolicy:
    """Switches resolving how the interaction terms act on the labels.

    tunneling_requires_broken_bond: the nuclear hop acts only while the
        bond is broken (a bound molecule cannot separate).
    bond_term_requires_colocated: the phonon/bond exchange acts only
        while the nuclei share a cavity.
    """

    tunneling_requires_broken_bond: bool = True
    bond_term_requires_colocated: bool = True


class _Move(NamedTuple):
    """A coherent hop from the source labels to the image labels.

    strength names the ModelParams field scaling the hop.  The gate,
    (state, GatingPolicy) -> bool, reads only labels the hop keeps, so
    it holds at both ends.
    """

    source: dict
    image: dict
    strength: str
    gate: Callable

    def step(self, s: BasisState, reverse: bool = False):
        """The image of s (its source if reverse), None if s is no end."""
        start, end = (self.image, self.source) if reverse \
            else (self.source, self.image)
        if all(getattr(s, k) == v for k, v in start.items()):
            return s._replace(**end)
        return None


class _Jump(NamedTuple):
    """A field mode's label and the ModelParams fields of its rates."""

    label: str
    decay: str
    influx: str

    def step(self, s: BasisState, raising: bool = False):
        """The image of s when the mode loses its quantum (gains one if
        raising), None when it has none to lose (already holds one)."""
        if getattr(s, self.label) == raising:
            return None
        return s._replace(**{self.label: int(raising)})


# The model's transition rules; closure, Hamiltonian and jumps read them,
# and every other list of the couplings or rates is read off them.
MOVES = (
    # photon exchange, active only while the bond is formed
    _Move({"p1": 0, "l1": 1}, {"p1": 1, "l1": 0}, "g_up",
          lambda s, gating: s.L == 0),
    _Move({"p2": 0, "l2": 1}, {"p2": 1, "l2": 0}, "g_down",
          lambda s, gating: s.L == 0),
    # bond formation releases a phonon, breaking absorbs one
    _Move({"m": 0, "L": 1}, {"m": 1, "L": 0}, "g_omega",
          lambda s, gating: s.k == 0
          or not gating.bond_term_requires_colocated),
    # nuclear hop between cavities
    _Move({"k": 0}, {"k": 1}, "zeta",
          lambda s, gating: s.L == 1
          or not gating.tunneling_requires_broken_bond),
)
JUMPS = (
    _Jump("p1", "gamma_up", "influx_up"),
    _Jump("p2", "gamma_down", "influx_down"),
    _Jump("m", "gamma_phn", "influx_phn"),
)
# the ModelParams fields of the rates: the decays, then the influxes
RATES = tuple(getattr(jump, field) for field in ("decay", "influx")
              for jump in JUMPS)


# The 26-state reduced basis that compatibility mode restricts to: the
# set reachable from the standard four-component initial state under
# the gated interactions plus the three decay channels.
_TABLE_BITSTRINGS = (
    "0000000", "0100000", "1000000", "1100000", "0000010", "0000011",
    "0000100", "1000100", "0000110", "0000111", "0001000", "0101000",
    "0001010", "0001011", "0001100", "0001110", "0001111", "0010000",
    "0110000", "1010000", "1110000", "0010100", "1010100", "0011000",
    "0111000", "0011100",
)
TABLE_STATES = tuple(sorted(BasisState.from_string(s)
                            for s in _TABLE_BITSTRINGS))
_TABLE_SET = frozenset(TABLE_STATES)

# Components of the standard initial state: both electrons on atomic
# orbitals, bond broken, nuclei together, no field quanta.
INITIAL_COMPONENTS = (
    BasisState.from_string("0000010"),
    BasisState.from_string("0000110"),
    BasisState.from_string("0001010"),
    BasisState.from_string("0001110"),
)


class StateSpace:
    """Ordered, indexed set of basis states."""

    def __init__(self, states: Iterable[BasisState], mode: str):
        self.states = tuple(sorted(BasisState(*s) for s in states))
        self.mode = mode
        self._index = {s: i for i, s in enumerate(self.states)}
        if len(self._index) != len(self.states):
            raise ValueError("duplicate states in space")
        # Matter labels actually present, in ascending label order.
        self.b_labels = tuple(sorted({s.b_label() for s in self.states}))
        b_pos = {b: i for i, b in enumerate(self.b_labels)}
        self.a_index = tuple(2 * s.p1 + s.p2 for s in self.states)
        self.b_index = tuple(b_pos[s.b_label()] for s in self.states)

    @property
    def size(self) -> int:
        return len(self.states)

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def get_index(self, state: BasisState):
        return self._index.get(BasisState(*state))

    def dump_lines(self):
        return [f"{i}\t{s.to_string()}" for i, s in enumerate(self.states)]

    def __repr__(self):
        return f"StateSpace(mode={self.mode!r}, size={self.size})"


def table_space() -> StateSpace:
    """The canonical 26-state compatibility space."""
    return StateSpace(TABLE_STATES, MODE_TABLE)


def _neighbors(s: BasisState, params, gating: GatingPolicy,
               include_dissipation: bool):
    out = []
    for move in MOVES:
        if getattr(params, move.strength) > 0 and move.gate(s, gating):
            out += filter(None, (move.step(s), move.step(s, reverse=True)))
    if include_dissipation:
        for jump in JUMPS:  # decay closes whatever its rate, influx if on
            influx = getattr(params, jump.influx) > 0
            out += filter(None, (jump.step(s),
                                 influx and jump.step(s, raising=True)))
    return out


def generate_space(seeds, params, gating: GatingPolicy = GatingPolicy(),
                   include_dissipation: bool = True,
                   mode: str = MODE_CLOSURE) -> StateSpace:
    """Breadth-first closure of the seeds under the active transitions.

    Every move of MOVES with a positive strength is applied in both
    directions, subject to its gate; with include_dissipation every
    decay of JUMPS is applied forward whatever its rate, and an influx
    only when its rate is positive.  In table-compat mode the closure
    is intersected with the 26-state compatibility basis, and seeds
    outside that basis are rejected.
    """
    if mode not in (MODE_CLOSURE, MODE_TABLE):
        raise ValueError(f"unknown space mode {mode!r}")
    seeds = [BasisState(*s) for s in seeds]
    if not seeds:
        raise EmptySeeds("need at least one seed state")
    outside = [s.to_string() for s in seeds if s not in _TABLE_SET]
    if mode == MODE_TABLE and outside:
        raise SeedOutsideCompatTable("seeds outside the compatibility "
                                     f"basis: {', '.join(outside)}")
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        s = queue.popleft()
        for t in _neighbors(s, params, gating, include_dissipation):
            if t not in seen:
                seen.add(t)
                queue.append(t)

    if mode == MODE_TABLE:
        seen &= _TABLE_SET
    return StateSpace(seen, mode)
