"""Density-matrix evolution with exact propagators between records.

Closed runs hop with the spectral propagator exp(-i H tau / hbar), from
numpy's eigh alone; open runs apply the exact Lindblad solution
exp(L tau) to row-major vec(rho), with a sparse L and scipy's
expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)):
one interval-mode call covers the equal record intervals and a second
the final short one, so dt only sets the record grid.  scipy is imported
where an open run first builds its Liouvillian, so importing the package,
validating a config and every closed run load numpy only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, PositivityLost, SpaceMismatch, \
    StateMissing
from .operators import OperatorMatrix
from .statespace import INITIAL_COMPONENTS, StateSpace


@dataclass
class DensityMatrix:
    mat: np.ndarray
    space: StateSpace

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray, space) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), space)

    def trace(self) -> float:
        return float(self.mat.trace().real)

    def purity(self) -> float:
        return float((self.mat @ self.mat).trace().real)


@dataclass
class SimConfig:
    dt: float
    t_end: float
    record_stride: int = 1
    renormalize_trace: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list
    space: StateSpace
    # worst record: lowest eigenvalue, its time, |tr rho - 1| before
    # renorm, max |rho - rho^dagger| before symmetrisation
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


def make_propagator(H: OperatorMatrix, dt: float,
                    hbar: float = 1.0) -> OperatorMatrix:
    """exp(-i H dt / hbar) via spectral decomposition of Hermitian H."""
    mat = _hermitian(H.mat)
    evals, vecs = np.linalg.eigh(mat)
    phases = np.exp(-1j * evals * (dt / hbar))
    u = (vecs * phases) @ vecs.conj().T
    return OperatorMatrix(u, H.space)


def _lindblad_terms(channels):
    terms = []
    for ch in channels:
        a = ch.op.mat
        terms.append((ch.rate, a, a.conj().T, a.conj().T @ a))
    return terms


def _liouvillian(h, terms, hbar):
    """Sparse Lindblad generator on row-major vec(rho), by
    vec(A rho B) = (A kron B^T) vec(rho)."""
    from scipy import sparse

    kron = sparse.kron
    eye = sparse.identity(h.shape[0], format="csr")
    gen = (-1j / hbar) * (kron(h, eye) - kron(eye, h.T))
    for rate, a, adag, adag_a in terms:
        gen = gen + rate * (kron(a, adag.T) - 0.5 * kron(adag_a, eye)
                            - 0.5 * kron(eye, adag_a.T))
    return gen.tocsr()


def _record_points(n_steps, stride):
    """Step indices to record: every stride-th step plus the endpoint."""
    points = list(range(stride, n_steps + 1, stride))
    if not points or points[-1] != n_steps:
        points.append(n_steps)
    return points


def evolve(rho0: DensityMatrix, H: OperatorMatrix, channels,
           cfg: SimConfig, hbar: float = 1.0) -> Trajectory:
    """Propagate rho0 and record every record_stride steps plus the endpoint.

    Each record interval is one exact hop: a cached spectral propagator
    for closed runs; for open runs, one interval-mode expm_multiply of
    the Liouvillian over the equal intervals and one more for a final
    short interval.
    Each record is symmetrised, optionally renormalised and checked for
    positivity; the trajectory keeps the worst margins.
    """
    if rho0.space is not H.space:
        raise SpaceMismatch("state and Hamiltonian bound to different spaces")
    for ch in channels:
        if ch.op.space is not rho0.space:
            raise SpaceMismatch("channel bound to a different space")

    terms = _lindblad_terms(channels)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    dim = rho0.space.size

    rho = rho0.mat.astype(complex).copy()
    times = [0.0]
    snapshots = [rho.copy()]
    min_eig, min_eig_t, max_drift, max_herm = math.inf, math.nan, 0.0, 0.0

    def record(step, rho):
        nonlocal min_eig, min_eig_t, max_drift, max_herm
        max_herm = max(max_herm, float(np.abs(rho - rho.conj().T).max()))
        rho = 0.5 * (rho + rho.conj().T)
        trace = rho.trace().real
        max_drift = max(max_drift, abs(trace - 1.0))
        if cfg.renormalize_trace:
            rho = rho / trace
        low = float(np.linalg.eigvalsh(rho)[0])
        if low < -1e-6:
            raise PositivityLost(f"eigenvalue {low:g} at step {step}")
        if low < min_eig:
            min_eig, min_eig_t = low, step * cfg.dt
        times.append(step * cfg.dt)
        snapshots.append(rho.copy())
        return rho

    points = _record_points(n_steps, cfg.record_stride)
    previous = 0
    if terms:
        from scipy.sparse.linalg import expm_multiply

        gen = _liouvillian(_hermitian(H.mat), terms, hbar)

        def hop(rho, steps):
            vec = expm_multiply(gen * (steps * cfg.dt), rho.reshape(-1))
            return vec.reshape(dim, dim)

        # the equal hops in one interval-mode call, exp(k L tau) rho0 for
        # k = 0..equal; renormalising each record by its own trace equals
        # renormalising hop by hop, since the evolution is linear
        stride = cfg.record_stride
        equal = n_steps // stride
        if equal:
            vecs = expm_multiply(gen * (stride * cfg.dt), rho.reshape(-1),
                                 start=0, stop=equal, num=equal + 1,
                                 endpoint=True)
            for k in range(1, equal + 1):
                rho = record(k * stride, vecs[k].reshape(dim, dim))
            previous = equal * stride
            points = points[equal:]
    else:
        unitaries = {}

        def hop(rho, steps):
            if steps not in unitaries:
                unitaries[steps] = make_propagator(H, cfg.dt * steps,
                                                   hbar).mat
            u = unitaries[steps]
            return u @ rho @ u.conj().T

    for step in points:
        rho = record(step, hop(rho, step - previous))
        previous = step
    return Trajectory(np.array(times), snapshots, rho0.space,
                      min_eigenvalue=min_eig, min_eigenvalue_t=min_eig_t,
                      max_trace_drift=max_drift,
                      max_hermiticity_error=max_herm)
