"""Marginals, entropies and measurement-optimized quantum discord.

The observed subsystem A is the photon pair (p1, p2); everything else
is the matter subsystem B.  States over a reduced StateSpace are first
embedded into the product of the full 4-dimensional A-label space with
the B-labels actually present, because a projective measurement on A
can push weight onto (A, B) combinations the reduced basis omits.

The measurement family is the product of two single-qubit bases

    v0 = cos(theta)|0> + sin(theta) e^{+i phi}|1>
    v1 = sin(theta) e^{-i phi}|0> - cos(theta)|1>

(and the primed pair for the second qubit), which is orthonormal for
every angle choice and reduces to the real-valued family at phi = 0.
One builder makes the outcome vectors u of a batch of angle tuples,
and one matmul kernel the B blocks <u|rho|u>.  A search point is the
row (theta, theta', phi, phi') of a `MeasurementConfig`; the family
only decides which columns the grid and the refinement vary, and
`_plan` builds each grid once.

Classical correlation maximizes over a deterministic grid of the free
angles, evaluated once per distinct measurement, followed by a batched
pattern-search refinement; ties within 1e-9 nats resolve to the
lexicographically smallest angle tuple, so results are reproducible
bit for bit.  Both thetas are always searched, and the two phases
exactly when `phi_points > 1`; one phase point fixes them at 0.
`SearchConfig()` is the CLI preset: 17 thetas per qubit and one phase
point.  The grid drops every point whose unordered set of product
projectors an earlier point (in ij order) already gives:
theta = pi/2 repeats theta = 0 with the outcomes swapped, the phase
does nothing at theta in {0, pi/2}, phi = 2 pi repeats phi = 0, and
(theta, phi) and (pi/2 - theta, phi + pi) give the same basis.  The
17-point grids keep 256 of 289 points with one phase point and 14641
of 83521 four-angle points.  Computing discord is NP-complete in
general (Huang, New J. Phys. 16, 033027 (2014)), so the search is a
heuristic.

The refinement always runs.  It steps h from the largest grid spacing
down to REFINE_TOL / 4 = 2.5e-5 rad, halving: at each h it moves to the
best of the +-h trials on every free angle while that gains more than
1e-12 nats.  Where h would halve, one batch evaluates every smaller h as
well, and the largest h with a gain takes its best trial, so the moves
are those of the step-by-step rule and a point no step improves costs
one batch.

Along a trajectory (`discord_series`) each mixed snapshot may start
from the argmin of the last mixed snapshot, the warm point.  One batch
evaluates the warm point and the guard grid, the search's family on
GUARD_POINTS = 5 points per free angle (16 distinct measurements with
one phase point).  When the best of these lies within one guard spacing
of the warm point on every free angle, the refinement starts there;
otherwise, and for the first mixed snapshot, the full grid runs, as it
always does for a lone `discord()` call.

A pure joint state needs no search.  Every rank-1 measurement on A
then leaves B pure, so the conditional entropy is zero for every
angle choice and J = S(B), D = I - J = S(A) (Ollivier & Zurek, PRL
88, 017901 (2001); Henderson & Vedral, J. Phys. A 34, 6899 (2001)).
The record takes J = S_B and D = (S_A + S_B - S_AB) - S_B, with S_AB
from the spectrum of rho, so D equals S_A only up to rounding (a pure
state's S_AB is round-off, not 0).  A state counts as pure when 1 - tr(rho^2) < PURE_TOL
(`is_pure`).  For such a state the reported measurement is the one
the search's tie-break picks on a flat landscape: all four angles
zero, and the outcome probabilities of that measurement, the diagonal
of rho_A in outcome order.  Closed (unitary) runs stay pure, so all
their snapshots take this path.
Every record `discord()` returns has passed `DiscordPoint.check`.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import DensityMatrix
from .errors import DiscordOutOfBounds, NotDensityMatrix

EPS_EIGENVALUE = 1e-12  # floor below which spectrum weight is treated as 0
EPS_OUTCOME = 1e-12     # outcomes rarer than this contribute nothing
TIE_TOL = 1e-9
PURE_TOL = 1e-10        # 1 - tr(rho^2) below this takes the closed form
GUARD_POINTS = 5        # guard grid points per free angle of a warm start
REFINE_TOL = 1e-4       # the refinement's last step is REFINE_TOL / 4
MAX_GRID_POINTS = 10**6  # most raw grid points a search may hold
_CHUNK = 256            # outcome vectors per batch (bounds its B blocks)


def _embedded(rho: DensityMatrix) -> np.ndarray:
    """View rho as a (4, nB, 4, nB) array over A-label x present B-labels."""
    space = rho.space
    a = np.asarray(space.a_index)
    b = np.asarray(space.b_index)
    nb = len(space.b_labels)
    rho4 = np.zeros((4, nb, 4, nb), dtype=complex)
    rho4[a[:, None], b[:, None], a[None, :], b[None, :]] = rho.mat
    return rho4


def _marginals(rho4: np.ndarray):
    """(rho_A, rho_B), the photon-pair and matter marginals of rho4."""
    return np.einsum("abcb->ac", rho4), np.einsum("abad->bd", rho4)


def _entropy_psd(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > EPS_EIGENVALUE]
    return max(0.0, float(-(w * np.log(w)).sum()))


# (lo, hi) of theta, theta', phi and phi', the columns of a point's row
_ANGLE_BOUNDS = np.array([[0.0, np.pi / 2], [0.0, np.pi / 2],
                          [0.0, 2 * np.pi], [0.0, 2 * np.pi]])


class MeasurementConfig(NamedTuple):
    """Angles of one product measurement."""

    theta: float
    theta_prime: float
    phi: float = 0.0
    phi_prime: float = 0.0


def _basis_vectors(theta, theta_p, phi, phi_p) -> np.ndarray:
    """The four two-qubit outcome vectors, in the order 00', 10', 01',
    11', along the second-to-last axis; the angles are scalars or
    equal-shape arrays."""
    def qubit(t, f):
        c, s, e = np.cos(t), np.sin(t), np.exp(1j * f)
        return (np.stack([c + 0j, s * e], axis=-1),
                np.stack([s * e.conj(), -c + 0j], axis=-1))

    def pair(x, y):
        return (x[..., :, None] * y[..., None, :]).reshape(*x.shape[:-1], 4)

    (v0, v1), (w0, w1) = qubit(theta, phi), qubit(theta_p, phi_p)
    return np.stack([pair(v0, w0), pair(v1, w0), pair(v0, w1),
                     pair(v1, w1)], axis=-2)


def _outer(vectors: np.ndarray) -> np.ndarray:
    """conj(u_a) u_c as one row of 16 per outcome vector u."""
    return (vectors.conj()[:, :, None]
            * vectors[:, None, :]).reshape(-1, 16)


def _ac_bd(rho4: np.ndarray) -> np.ndarray:
    """rho4[a, b, c, d] as 16 (b, d) matrices, one per (a c)."""
    return rho4.transpose(0, 2, 1, 3).reshape(16, *rho4.shape[1::2])


def _blocks(rows: np.ndarray, ac_bd: np.ndarray) -> np.ndarray:
    """tr_A[(P (x) 1) rho] for each row P^T flattened, as (nB, nB) blocks.

    For P = |u><u| the row is conj(u_a) u_c and the block is <u|rho|u>;
    rho enters as `_ac_bd(rho4)`, read as the (a c) x (b d) matrix, so a
    batch is one matmul.
    """
    return (rows @ ac_bd.reshape(16, -1)).reshape(-1, *ac_bd.shape[1:])


@dataclass(frozen=True)
class SearchConfig:
    """The grid of the grid-plus-refinement search over the measurement
    family; the defaults are the CLI's."""

    theta_points: int = 17
    phi_points: int = 1     # a phase axis is searched when above 1

    def __post_init__(self):
        for name, low in (("theta_points", 2), ("phi_points", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        if self.theta_points**2 * self.phi_points**2 > MAX_GRID_POINTS:
            raise ValueError(f"theta_points and phi_points give more than "
                             f"{MAX_GRID_POINTS} grid points")


class _Evaluator:
    """Batched conditional-entropy evaluation for one embedded state.

    B labels that rho never couples, directly or through other labels,
    form separate groups (the model's conservation laws leave such exact
    zeros); every B block is then block diagonal, and its spectrum is
    the union of the groups' spectra.
    """

    def __init__(self, rho4: np.ndarray):
        self.rho4 = rho4

    @cached_property
    def groups(self) -> list:
        """`_ac_bd` of rho4 restricted to each group of coupled B labels."""
        nb = self.rho4.shape[1]
        coupled = (self.rho4 != 0).any(axis=(0, 2))
        linked = coupled | coupled.T | np.eye(nb, dtype=bool)
        for _ in range(nb.bit_length()):  # transitive closure
            linked = (linked.astype(int) @ linked) > 0
        first = linked.argmax(axis=0)  # each label's lowest group member
        groups = []
        # the labels that lead a group, ascending (np.unique would import
        # numpy.ma)
        for label in np.flatnonzero(first == np.arange(nb)):
            idx = np.flatnonzero(first == label)
            groups.append(_ac_bd(self.rho4[:, idx][:, :, :, idx]))
        return groups

    def _spectra(self, vectors: np.ndarray) -> np.ndarray:
        """Eigenvalues of <u|rho|u> for each row u of `vectors`."""
        rows = _outer(vectors)
        return np.concatenate([np.linalg.eigvalsh(_blocks(rows, group))
                               for group in self.groups], axis=-1)

    def conditional_entropies(self, points: np.ndarray) -> np.ndarray:
        """Sum_k p_k S(rho_k) at each row of angles of `points`."""
        points = np.asarray(points, dtype=float)
        flat = _basis_vectors(*points.T).reshape(-1, 4)
        contrib = np.empty(flat.shape[0])
        for start in range(0, flat.shape[0], _CHUNK):
            w = self._spectra(flat[start:start + _CHUNK])
            p = w.sum(axis=-1)
            safe_p = np.where(p > EPS_OUTCOME, p, 1.0)
            r = w / safe_p[:, None]
            r = np.where(r > EPS_EIGENVALUE, r, 1.0)
            ent = -(r * np.log(r)).sum(axis=-1)
            contrib[start:start + _CHUNK] = np.where(p > EPS_OUTCOME,
                                                     p * ent, 0.0)
        return contrib.reshape(len(points), 4).sum(axis=-1)

    def probabilities(self, angles) -> np.ndarray:
        vectors = _basis_vectors(*np.array(angles)[:, None])[0]
        blocks = _blocks(_outer(vectors), _ac_bd(self.rho4))
        return np.einsum("gbb->g", blocks).real


def _measurement_ids(i, j, n_theta: int, n_phi: int):
    """One id per single-qubit measurement at grid indices (i, j) of
    `n_theta` thetas on [0, pi/2] and `n_phi` phis on [0, 2 pi]; grid
    points giving the same unordered projector pair share it."""
    period = n_phi - 1
    if period:
        j = j % period  # phi = 2 pi repeats phi = 0
    ids = i * n_phi + j
    if period and period % 2 == 0:
        # (theta, phi) and (pi/2 - theta, phi + pi) swap the two outcomes
        ids = np.minimum(ids, (n_theta - 1 - i) * n_phi
                         + (j + period // 2) % period)
    # theta = 0 and theta = pi/2 both measure the z basis, whatever phi
    return np.where((i == 0) | (i == n_theta - 1), -1, ids)


class _Plan(NamedTuple):
    """What the search reads about the grid of one `SearchConfig`, each
    array read-only.  `kept` holds the indices, ascending, into the
    ij-ordered grid of the points whose measurement no earlier point
    makes, and `points` those points, one row each."""

    kept: np.ndarray
    points: np.ndarray
    free: np.ndarray     # the columns with more than one grid point
    spacing: np.ndarray  # grid[1] - grid[0] of each free column
    moves: np.ndarray    # rows -e_k, +e_k for each free column k
    steps: np.ndarray    # the largest spacing, halved down to REFINE_TOL / 4


@lru_cache(maxsize=16)
def _plan(search: SearchConfig) -> _Plan:
    """The plan of `search`'s grid; a fixed column's grid is [0.0]."""
    n_theta, n_phi = search.theta_points, search.phi_points
    axes = [np.linspace(lo, hi, n) for (lo, hi), n
            in zip(_ANGLE_BOUNDS, (n_theta, n_theta, n_phi, n_phi))]
    index = np.indices([len(grid) for grid in axes]).reshape(4, -1)
    i, i_p, j, j_p = index
    first = _measurement_ids(i, j, n_theta, n_phi) + 1  # from 0 up
    second = _measurement_ids(i_p, j_p, n_theta, n_phi) + 1
    # each pair (first, second) as one integer, in the pairs' own order
    pairs = first * (n_theta * n_phi + 1) + second
    kept = np.sort(np.unique(pairs, return_index=True)[1])
    points = np.column_stack([grid[axis[kept]]
                              for grid, axis in zip(axes, index)])
    free = np.array([len(grid) > 1 for grid in axes])
    spacing = np.array([grid[1] - grid[0] for grid in axes if len(grid) > 1])
    steps = [spacing.max()]
    while steps[-1] > REFINE_TOL / 4:
        steps.append(steps[-1] / 2)
    plan = _Plan(kept, points, free, spacing,
                 np.kron(np.eye(4)[free], [[-1.0], [1.0]]), np.array(steps))
    for array in plan:
        array.setflags(write=False)
    return plan


def _grid_minimum(ev: _Evaluator, search: SearchConfig):
    points = _plan(search).points
    values = ev.conditional_entropies(points)
    # lexicographic tie-break: the kept points are in ij order, which
    # enumerates angle tuples in ascending order, and a dropped point only
    # repeats an earlier one, so the first near-minimal index wins
    best = int(np.nonzero(values <= values.min() + TIE_TOL)[0][0])
    return points[best], float(values[best])


def _warm_start(ev: _Evaluator, search: SearchConfig,
                warm: MeasurementConfig):
    """(point, value) to refine from, or None to take the full grid.

    One batch evaluates the warm point and the guard grid, the search's
    family on GUARD_POINTS points per free angle.  The best of them is
    adopted when it lies within one guard spacing of the warm point on
    every free angle; a better guard point farther out means the
    minimum may have moved to another basin.
    """
    guard = _plan(SearchConfig(
        GUARD_POINTS, GUARD_POINTS if search.phi_points > 1 else 1))
    points = np.vstack([warm, guard.points])
    values = ev.conditional_entropies(points)
    best = int(np.argmin(values))
    moved = np.abs(points[best] - points[0])[guard.free]
    if (moved > guard.spacing).any():
        return None
    return points[best], float(values[best])


def _refine(ev: _Evaluator, search: SearchConfig, point: np.ndarray,
            f_best: float):
    """Pattern search from a grid or warm-start minimum.

    The rule: at each step h, from the largest grid spacing of a free
    column down to REFINE_TOL / 4 by halving, evaluate +-h on every
    free column of the row, clipped to the angle bounds, and move to
    the best trial (the first, on a tie) while it gains more than
    1e-12; float-noise gains are ignored, so flat landscapes keep the
    grid tie-break angles.  Where h would
    halve, one batch evaluates the trials of every smaller h as well,
    and the largest h with a gain takes its best trial: the smaller
    steps it skips gain nothing at this point, so the moves are those
    of the rule, and a point no step improves costs one batch.  After a
    move only the same h is tried again, as a descent usually gains
    there once more.
    """
    lo, hi = _ANGLE_BOUNDS.T
    plan = _plan(search)
    moves, steps = plan.moves, plan.steps
    level, smaller = 0, True  # try steps[level], and all smaller ones?
    while level < len(steps):
        tried = steps[level:] if smaller else steps[level:level + 1]
        trials = np.clip(point + tried[:, None, None] * moves,
                         lo, hi).reshape(-1, 4)
        levels = level + np.repeat(np.arange(len(tried)), len(moves))
        # a trial clipped back onto the point repeats it
        keep = (trials != point).any(axis=1)
        trials, levels = trials[keep], levels[keep]
        values = ev.conditional_entropies(trials)
        gains = values < f_best - 1e-12
        if gains.any():
            level = levels[np.argmax(gains)]
            at_level = np.flatnonzero(levels == level)
            k = at_level[np.argmin(values[at_level])]
            point, f_best = trials[k], float(values[k])
            smaller = False
        elif smaller:
            break
        else:
            level, smaller = level + 1, True
    return point, f_best


def _search_minimum(rho4: np.ndarray, search: SearchConfig,
                    warm: Optional[MeasurementConfig] = None):
    """Grid-plus-refinement minimum of the measured conditional entropy.

    With a warm point, the refinement may start from the guard grid
    instead (`_warm_start`).  Returns (value, config, probabilities,
    whether the full grid was searched, whether the refinement moved
    the point); without a warm point, the reference for the pure-state
    closed form in `discord`.
    """
    ev = _Evaluator(rho4)
    start = None if warm is None else _warm_start(ev, search, warm)
    full_grid = start is None
    if full_grid:
        start = _grid_minimum(ev, search)
    point, f_best = _refine(ev, search, *start)
    config = MeasurementConfig(*point.tolist())
    return (f_best, config, ev.probabilities(config), full_grid,
            f_best < start[1])


def is_pure(rho: DensityMatrix) -> bool:
    """True when 1 - tr(rho^2) < PURE_TOL, where discord has a closed form."""
    mat = rho.mat
    return 1.0 - float(np.vdot(mat, mat).real) < PURE_TOL


@dataclass
class DiscordPoint:
    """Entropies, correlations and the optimizing measurement at one time."""

    t: float
    s_a: float
    s_b: float
    s_ab: float
    mutual_info: float
    classical_corr: float
    discord: float
    argmin_config: MeasurementConfig
    outcome_probs: tuple
    pure: bool = False      # closed form used: 1 - tr(rho^2) < PURE_TOL
    full_grid: bool = False  # the search evaluated the full grid
    refine_moved: bool = False  # the refinement moved the search's start

    CSV_HEADER = ("t,S_A,S_B,S_AB,I,J,D,"
                  "theta,theta_prime,phi,phi_prime,p0,p1,p2,p3")

    def row(self) -> tuple:
        """The values of the CSV_HEADER columns."""
        return (self.t, self.s_a, self.s_b, self.s_ab, self.mutual_info,
                self.classical_corr, self.discord, *self.argmin_config,
                *self.outcome_probs)

    def check(self) -> "DiscordPoint":
        """self, or DiscordOutOfBounds when a bound of discord fails."""
        at = f"at t={self.t!r}"
        if abs(self.discord - (self.mutual_info - self.classical_corr)) > 1e-9:
            raise DiscordOutOfBounds(f"D != I - J {at}")
        if self.discord < -1e-9:
            raise DiscordOutOfBounds(f"D={self.discord!r} < 0 {at}")
        if self.discord > self.s_a + 1e-6:
            raise DiscordOutOfBounds(f"D={self.discord!r} > S_A {at}")
        if self.discord > self.mutual_info + 1e-9:
            raise DiscordOutOfBounds(f"D={self.discord!r} > I {at}")
        if abs(sum(self.outcome_probs) - 1.0) > 1e-9:
            raise DiscordOutOfBounds(f"outcome probabilities sum to "
                                     f"{sum(self.outcome_probs)!r} {at}")
        return self


def discord(rho_AB: DensityMatrix, search: SearchConfig = SearchConfig(),
            t: float = 0.0,
            warm: Optional[MeasurementConfig] = None) -> DiscordPoint:
    """Full discord record for one joint state.

    `warm`, the argmin of an earlier mixed snapshot, lets the search
    start from the guard grid and that point instead of the full grid
    (see `discord_series`); without it the search is cold.  A pure
    state has zero conditional entropy under every measurement; it
    reports the all-zero angles the search's tie-break would pick.
    A trace off 1 by more than 1e-9 raises NotDensityMatrix; a record
    that breaks a bound of `DiscordPoint.check` raises DiscordOutOfBounds.
    """
    trace = rho_AB.trace()
    if abs(trace - 1.0) > 1e-9:
        raise NotDensityMatrix(f"trace deviates by {trace - 1.0:g}")
    rho4 = _embedded(rho_AB)
    rho_a, rho_b = _marginals(rho4)
    s_a = _entropy_psd(rho_a)
    s_b = _entropy_psd(rho_b)
    s_ab = _entropy_psd(rho_AB.mat)
    info = s_a + s_b - s_ab
    pure = is_pure(rho_AB)
    if pure:  # all angles zero: the outcomes are rho_A's diagonal
        value, full_grid, moved = 0.0, False, False
        config = MeasurementConfig(0.0, 0.0)
        probs = rho_a.diagonal().real[[0, 2, 1, 3]]
    else:
        value, config, probs, full_grid, moved = _search_minimum(
            rho4, search, warm)
    j = s_b - value
    return DiscordPoint(t=t, s_a=s_a, s_b=s_b, s_ab=s_ab, mutual_info=info,
                        classical_corr=j, discord=info - j,
                        argmin_config=config, outcome_probs=tuple(probs),
                        pure=pure, full_grid=full_grid,
                        refine_moved=moved).check()


def discord_series(rhos, search: SearchConfig, times) -> list:
    """Discord records of a sequence of joint states taken at `times`.

    Each mixed state's search is warm-started from the argmin of the
    last mixed state before it; the first mixed state, and any whose
    guard grid finds a better point more than one guard spacing away,
    search the full grid (`DiscordPoint.full_grid`).
    """
    points = []
    warm = None
    for rho, t in zip(rhos, times, strict=True):
        point = discord(rho, search, t, warm)
        if not point.pure:
            warm = point.argmin_config
        points.append(point)
    return points
