"""Density-matrix evolution, exact at every record.

A closed run forms each record straight from rho0 by the eigenvector
method for a Hermitian generator (Moler & Van Loan, SIAM Rev. 45, 3
(2003)): one eigh H = V diag(E) V^dagger, R0 = V^dagger rho0 V, and
rho(t) = W R0 W^dagger with W = V diag(exp(-i E t)), so no record
carries the rounding of the ones before it.  An open run hops from
record to record with the Lindblad solution exp(L tau), applied to rho
as a matrix by a truncated Taylor series, the algorithm of
expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)):
a hop takes ceil(||L||_1 tau / TAYLOR_THETA) substeps, and each substep
adds terms until two in a row fall below 2^-53 of the sum.  dt only
sets the record grid.  Both kinds of run need numpy alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, PositivityLost, SpaceMismatch, \
    StateMissing
from .operators import OperatorMatrix
from .statespace import INITIAL_COMPONENTS, StateSpace

# largest ||L||_1 tau of one Taylor substep of an open-run hop
TAYLOR_THETA = 4.0
# most Taylor substeps a config may ask of an open run's hops, by the
# bound ||L||_1 <= 2 (the sum of its couplings and rates)
MAX_SUBSTEPS = 10**6
# a substep's series stops by then at the latest; 4^56 / 56! < 1e-40
_MAX_TERMS = 55
# most records a run may keep; a bound on the count, not on the memory
MAX_RECORDS = 10**5


@dataclass
class DensityMatrix:
    mat: np.ndarray
    space: StateSpace

    def trace(self) -> float:
        return float(self.mat.trace().real)

    def purity(self) -> float:
        return float((self.mat @ self.mat).trace().real)


@dataclass
class SimConfig:
    dt: float
    t_end: float
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end / self.dt)):
            raise ValueError("t_end must be at least one step, and a finite "
                             "number of steps")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        # the initial state and each point of _record_points
        if 1 + -(-self.n_steps // self.record_stride) > MAX_RECORDS:
            raise ValueError(f"record_stride and t_end keep more than "
                             f"{MAX_RECORDS} records")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list
    space: StateSpace
    # worst record: lowest eigenvalue, its time, |tr rho - 1|, max
    # |rho - rho^dagger| before symmetrisation
    min_eigenvalue: float = math.inf
    min_eigenvalue_t: float = math.nan
    max_trace_drift: float = 0.0
    max_hermiticity_error: float = 0.0

    def __len__(self):
        return len(self.times)

    def density(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.snapshots[i], self.space)


def initial_state(space: StateSpace) -> DensityMatrix:
    """Equal-weight four-component superposition with alternating signs."""
    signs = (1.0, -1.0, 1.0, -1.0)
    v = np.zeros(space.size, dtype=complex)
    for state, sign in zip(INITIAL_COMPONENTS, signs):
        idx = space.get_index(state)
        if idx is None:
            raise StateMissing(
                f"space lacks initial component {state.to_string()}")
        v[idx] = 0.5 * sign
    return DensityMatrix(np.outer(v, v.conj()), space)


def _hermitian(mat):
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() > 1e-12 * scale:
        raise NotHermitian("propagator needs a Hermitian generator")
    return mat


def _lindblad_propagator(h, channels):
    """(rho, tau) -> exp(L tau) rho for the Lindblad generator
    L(T) = K T + (K T)^dagger + sum_c rate_c a_c T a_c^dagger, with
    K = -i H - sum_c rate_c a_c^dagger a_c / 2, by the truncated
    Taylor series of expm_multiply (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)) applied to rho as a matrix.

    L maps Hermitian matrices to Hermitian ones, so one matmul gives
    both K T and T K^dagger, and every term is exactly Hermitian.  Each
    a_c is the index map of its channel, so the jump sum is one gather
    of the entries of T and one bincount over complex entries read as
    float pairs (real part at 2k, imaginary part at 2k + 1).
    """
    dim = h.shape[0]
    k = -1j * h
    src, dst, rates = [], [], []
    for ch in channels:
        k[ch.src, ch.src] -= 0.5 * ch.rate
        # (a T a^dagger)[d, d'] = T[s, s'] for pairs (s, d), (s', d') of a
        src.append((ch.src[:, None] * dim + ch.src).ravel())
        dst.append((ch.dst[:, None] * dim + ch.dst).ravel())
        rates.append(np.full(len(ch.src) ** 2, ch.rate))
    src, dst = np.concatenate(src), np.concatenate(dst)
    src = np.stack([2 * src, 2 * src + 1], axis=1).ravel()
    dst = np.stack([2 * dst, 2 * dst + 1], axis=1).ravel()
    rates = np.repeat(np.concatenate(rates), 2)
    # ||L||_1 on vec(rho) <= 2 ||K||_1 + sum_c rate_c ||a_c||_1^2, and
    # ||a_c||_1 = 1
    norm = 2 * float(np.abs(k).sum(axis=0).max()) \
        + sum(ch.rate for ch in channels)

    def generator(term):
        kt = k @ term
        jumps = np.bincount(dst, rates * term.reshape(-1).view(float)[src],
                            minlength=2 * dim * dim)
        return kt + kt.conj().T + jumps.view(complex).reshape(dim, dim)

    def propagate(rho, tau):
        # the Hermitian part of rho is what record() keeps of the image of
        # rho, since L commutes with the adjoint
        out = 0.5 * (rho + rho.conj().T)
        substeps = max(1, math.ceil(norm * tau / TAYLOR_THETA))
        for _ in range(substeps):
            term, previous = out, float(np.abs(out).max())
            for j in range(1, _MAX_TERMS + 1):
                term = generator(term) * (tau / (substeps * j))
                size = float(np.abs(term).max())
                out += term
                if previous + size <= 2.0 ** -53 * np.abs(out).max():
                    break
                previous = size
        return out

    return propagate


def _record_points(n_steps, stride):
    """Step indices to record: every stride-th step plus the endpoint."""
    points = list(range(stride, n_steps + 1, stride))
    if not points or points[-1] != n_steps:
        points.append(n_steps)
    return points


def evolve(rho0: DensityMatrix, H: OperatorMatrix, channels,
           cfg: SimConfig) -> Trajectory:
    """Propagate rho0 and record every record_stride steps plus the endpoint.

    A closed run forms each record from rho0 by one eigh of H, so a
    record at a given step does not depend on record_stride; an open run
    makes one exact hop per record interval, the Taylor series of
    exp(L tau).  Each record is symmetrised and checked for positivity;
    the trajectory keeps the worst margins.
    """
    if rho0.space is not H.space:
        raise SpaceMismatch("state and Hamiltonian bound to different spaces")
    for ch in channels:
        if ch.space is not rho0.space:
            raise SpaceMismatch("channel bound to a different space")

    rho = rho0.mat.astype(complex).copy()
    times = [0.0]
    snapshots = [rho.copy()]
    min_eig, min_eig_t, max_drift, max_herm = math.inf, math.nan, 0.0, 0.0

    def record(step, rho):
        nonlocal min_eig, min_eig_t, max_drift, max_herm
        max_herm = max(max_herm, float(np.abs(rho - rho.conj().T).max()))
        rho = 0.5 * (rho + rho.conj().T)
        max_drift = max(max_drift, abs(rho.trace().real - 1.0))
        low = float(np.linalg.eigvalsh(rho)[0])
        if low < -1e-6:
            raise PositivityLost(f"eigenvalue {low:g} at step {step}")
        if low < min_eig:
            min_eig, min_eig_t = low, step * cfg.dt
        times.append(step * cfg.dt)
        snapshots.append(rho.copy())
        return rho

    points = _record_points(cfg.n_steps, cfg.record_stride)
    if channels:
        propagate = _lindblad_propagator(_hermitian(H.mat), channels)
        previous = 0
        for step in points:
            rho = record(step, propagate(rho, (step - previous) * cfg.dt))
            previous = step
    else:
        energies, vecs = np.linalg.eigh(_hermitian(H.mat))
        start = vecs.conj().T @ rho @ vecs
        for step in points:
            w = vecs * np.exp(-1j * energies * (step * cfg.dt))
            record(step, w @ start @ w.conj().T)
    return Trajectory(np.array(times), snapshots, rho0.space,
                      min_eigenvalue=min_eig, min_eigenvalue_t=min_eig_t,
                      max_trace_drift=max_drift,
                      max_hermiticity_error=max_herm)
