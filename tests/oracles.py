"""Independent reference computations shared by the test modules.

Everything here is deliberately written the slow, explicit way so it
cannot share a bug with the library paths it checks.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import minimize_scalar

from h2discord.analysis import FitResult
from h2discord.discord import EPS_EIGENVALUE, REFINE_TOL, TIE_TOL
from h2discord.dynamics import DensityMatrix
from h2discord.errors import NotDensityMatrix
from h2discord.statespace import N_QUBITS, BasisState, StateSpace

FULL_DIM = 2**N_QUBITS
MODE_FULL = "full"


def encode(state: BasisState) -> int:
    """The canonical encoding: the labels read as a 7-bit number, p1 the
    most significant bit."""
    return sum(bit << shift for bit, shift in zip(state, range(6, -1, -1)))


def decode(code: int) -> BasisState:
    """The basis state whose canonical encoding is `code`."""
    if not 0 <= code < FULL_DIM:
        raise ValueError(f"encoding {code} outside 0..{FULL_DIM - 1}")
    return BasisState(*((code >> shift) & 1 for shift in range(6, -1, -1)))


def full_space() -> StateSpace:
    """All 128 basis states: every space the model builds lies in it."""
    return StateSpace((decode(c) for c in range(FULL_DIM)), MODE_FULL)


def brute_force_trace_B(rho_mat, space):
    """Photon-pair marginal by explicit summation over matter configs."""
    out = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for a2 in range(4):
            total = 0.0
            for code in range(32):
                b = tuple((code >> shift) & 1 for shift in range(4, -1, -1))
                s1 = space.get_index(BasisState(a >> 1, a & 1, *b))
                s2 = space.get_index(BasisState(a2 >> 1, a2 & 1, *b))
                if s1 is not None and s2 is not None:
                    total += rho_mat[s1, s2]
            out[a, a2] = total
    return out


def brute_force_trace_A(rho_mat, space):
    """Matter marginal by explicit summation over the photon labels."""
    labels = list(space.b_labels)
    out = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, b in enumerate(labels):
        for j, b2 in enumerate(labels):
            total = 0.0
            for a in range(4):
                s1 = space.get_index(BasisState(a >> 1, a & 1, *b))
                s2 = space.get_index(BasisState(a >> 1, a & 1, *b2))
                if s1 is not None and s2 is not None:
                    total += rho_mat[s1, s2]
            out[i, j] = total
    return out


def reference_ladder(space, label, raising):
    """Dense 0/1 lowering (raising if `raising`) matrix of the mode with
    the given label, from the basis bitstrings alone: each state whose
    label reads 1 (0) maps to the state that differs from it in that
    label only.  An image outside the space is dropped."""
    pos = BasisState._fields.index(label)
    bits = [s.to_string() for s in space.states]
    a = np.zeros((len(bits), len(bits)))
    for i, b in enumerate(bits):
        if b[pos] == ("0" if raising else "1"):
            image = b[:pos] + ("1" if raising else "0") + b[pos + 1:]
            if image in bits:
                a[bits.index(image), i] = 1.0
    return a


def jump_matrix(ch):
    """The dense operator sum_k |dst_k><src_k| of a jump channel."""
    a = np.zeros((ch.space.size, ch.space.size), dtype=complex)
    for s, d in zip(ch.src, ch.dst):
        a[d, s] += 1.0
    return a


def dissipator(rho_mat, channels):
    """The Lindblad dissipator in its sandwich form: per channel a with
    rate g, g (a rho a^dagger - (a^dagger a rho + rho a^dagger a) / 2)."""
    out = np.zeros_like(rho_mat)
    for ch in channels:
        a = jump_matrix(ch)
        number = a.conj().T @ a
        out += ch.rate * (a @ rho_mat @ a.conj().T
                          - 0.5 * (number @ rho_mat + rho_mat @ number))
    return out


def liouvillian(h, channels):
    """Sparse Lindblad generator on row-major vec(rho), by
    vec(A rho B) = (A kron B^T) vec(rho)."""
    kron = sparse.kron
    eye = sparse.identity(h.shape[0], format="csr")
    gen = -1j * (kron(h, eye) - kron(eye, h.T))
    for ch in channels:
        a = jump_matrix(ch)
        number = a.conj().T @ a
        gen = gen + ch.rate * (kron(a, a.conj()) - 0.5 * kron(number, eye)
                               - 0.5 * kron(eye, number.T))
    return gen.tocsr()


def von_neumann_entropy(rho, trace_tol=1e-6, eig_floor=-1e-6):
    """Entropy -tr(rho ln rho) in nats of a checked density matrix;
    clamped at zero from below."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() > 1e-9 * scale:
        raise NotDensityMatrix("matrix is not Hermitian")
    w = np.linalg.eigvalsh(mat)
    if abs(w.sum() - 1.0) > trace_tol:
        raise NotDensityMatrix(f"trace deviates by {w.sum() - 1.0:g}")
    if w[0] < eig_floor:
        raise NotDensityMatrix(f"negative eigenvalue {w[0]:g}")
    w = w[w > EPS_EIGENVALUE]
    return max(0.0, float(-(w * np.log(w)).sum()))


def free_hamiltonian(space, up, down, phn):
    """The free terms of a lab frame with mode frequencies up, down and
    phn: diagonal in the occupation basis, with the broken-bond flag
    counting as one phonon-frequency quantum.  The library works in the
    interaction picture, which drops them."""
    return np.diag([up * (s.p1 + s.l1) + down * (s.p2 + s.l2)
                    + phn * (s.m + s.L) for s in space]).astype(complex)


def total_excitations(space):
    """Diagonal count of field quanta plus electron and bond excitations.

    The broken-bond flag counts as one quantum: it is the excitation
    that converts into a phonon when the bond forms.  The closed-model
    Hamiltonian commutes with this operator under default gating.
    """
    return np.diag([float(s.p1 + s.p2 + s.m + s.l1 + s.l2 + s.L)
                    for s in space]).astype(complex)


def tied_pattern_projectors(theta):
    """The signed coefficient pattern of the tied-angle, zero-phase family."""
    c, s = np.cos(theta), np.sin(theta)
    c0, c1, c2, c3, c4 = c**4, c**3 * s, c**2 * s**2, c * s**3, s**4
    pi0 = np.array([[c0, c1, c1, c2], [c1, c2, c2, c3],
                    [c1, c2, c2, c3], [c2, c3, c3, c4]])
    pi1 = np.array([[c2, c3, -c1, -c2], [c3, c4, -c2, -c3],
                    [-c1, -c2, c0, c1], [-c2, -c3, c1, c2]])
    pi2 = np.array([[c2, -c1, c3, -c2], [-c1, c0, -c2, c1],
                    [c3, -c2, c4, -c3], [-c2, c1, -c3, c2]])
    pi3 = np.array([[c4, -c3, -c3, c2], [-c3, c2, c2, -c1],
                    [-c3, c2, c2, -c1], [c2, -c1, -c1, c0]])
    return pi0, pi1, pi2, pi3


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return mat / mat.trace()


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def reference_conditional_entropies(rho4, theta, theta_p, phi, phi_p):
    """Sum_k p_k S(rho_k) per angle tuple: each outcome's B block by one
    einsum sandwich over the full embedded state, then its spectrum."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta_p, phi, phi_p = (np.broadcast_to(x, theta.shape)
                           for x in (theta_p, phi, phi_p))

    def qubit(t, f):
        c, s, e = np.cos(t), np.sin(t), np.exp(1j * f)
        return (np.stack([c + 0j, s * e], axis=-1),
                np.stack([s * e.conj(), -c + 0j], axis=-1))

    (v0, v1), (w0, w1) = qubit(theta, phi), qubit(theta_p, phi_p)
    vectors = np.stack([np.einsum("gi,gj->gij", x, y).reshape(-1, 4)
                        for x, y in ((v0, w0), (v1, w0), (v0, w1),
                                     (v1, w1))], axis=1).reshape(-1, 4)
    blocks = np.einsum("ga,abcd,gc->gbd", vectors.conj(), rho4, vectors)
    total = np.zeros(len(vectors))
    for k, w in enumerate(np.linalg.eigvalsh(blocks)):
        p = w.sum()
        if p > 1e-12:
            r = w[w / p > 1e-12] / p
            total[k] = -p * (r * np.log(r)).sum()
    return total.reshape(-1, 4).sum(axis=-1)


ANGLE_BOUNDS = {"theta": (0.0, np.pi / 2), "theta_prime": (0.0, np.pi / 2),
                "phi": (0.0, 2 * np.pi), "phi_prime": (0.0, 2 * np.pi)}


def free_axes(search):
    """{name: grid over its range} of the angles the search varies: both
    thetas, and both phis when the search has more than one phase
    point."""
    axes = {"theta": np.linspace(*ANGLE_BOUNDS["theta"],
                                 search.theta_points),
            "theta_prime": np.linspace(*ANGLE_BOUNDS["theta_prime"],
                                       search.theta_points)}
    if search.phi_points > 1:
        axes["phi"] = np.linspace(*ANGLE_BOUNDS["phi"], search.phi_points)
        axes["phi_prime"] = np.linspace(*ANGLE_BOUNDS["phi_prime"],
                                        search.phi_points)
    return axes


def resolve_free(free, search):
    """(theta, theta', phi, phi') from a {name: angle} dict of the angles
    the search varies; fixed phases are 0.0."""
    if search.phi_points == 1:
        return free["theta"], free["theta_prime"], 0.0, 0.0
    return free["theta"], free["theta_prime"], free["phi"], free["phi_prime"]


def full_grid_minimum(evaluate, search):
    """The first near-minimal point of the whole ij-ordered grid, no
    point dropped: (free angles, grid spacing per axis, value).
    `evaluate(points)` takes one row (theta, theta', phi, phi') per
    point."""
    axes = free_axes(search)
    grids = np.meshgrid(*axes.values(), indexing="ij")
    flat = {name: grid.ravel() for name, grid in zip(axes, grids)}
    points = np.column_stack(np.broadcast_arrays(*resolve_free(flat,
                                                               search)))
    values = evaluate(points)
    best = int(np.nonzero(values <= values.min() + TIE_TOL)[0][0])
    free = {name: float(flat[name][best]) for name in axes}
    spacing = {name: float(vals[1] - vals[0]) for name, vals in axes.items()}
    return free, spacing, float(values[best])


def reference_search_minimum(rho4, search):
    """The minimum of the measured conditional entropy by the full grid,
    then bounded `minimize_scalar` coordinate descent, one axis at a
    time within one grid spacing: (value, resolved angles)."""
    def value(free):
        angles = resolve_free(free, search)
        return float(reference_conditional_entropies(rho4, *angles)[0])

    free, spacing, f_best = full_grid_minimum(
        lambda points: reference_conditional_entropies(rho4, *points.T),
        search)
    for _ in range(12):
        moved = 0.0
        for name in list(free):
            lo = max(ANGLE_BOUNDS[name][0], free[name] - spacing[name])
            hi = min(ANGLE_BOUNDS[name][1], free[name] + spacing[name])
            if hi - lo <= REFINE_TOL * 1e-3:
                continue
            res = minimize_scalar(
                lambda x, name=name: value({**free, name: x}),
                bounds=(lo, hi), method="bounded",
                options={"xatol": REFINE_TOL / 4})
            if res.fun < f_best - 1e-12:
                moved = max(moved, abs(float(res.x) - free[name]))
                free[name] = float(res.x)
                f_best = float(res.fun)
        if moved < REFINE_TOL:
            break
    return value(free), resolve_free(free, search)


def reference_fit_sinusoid(times, values):
    """The previous `fit_sinusoid`: a*sin(b*t + c) + d with b from a
    bounded `minimize_scalar` of the RMS residual within 1.5 spectral bins
    of the peak, the linear parameters re-solved at every trial b.  Its
    b is only good to about sqrt(machine epsilon), since the residual is
    flat at its minimum.  The series must hold an oscillation."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)

    def linear_fit(b):
        design = np.column_stack([np.sin(b * times), np.cos(b * times),
                                  np.ones_like(times)])
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        residual = values - design @ coef
        return coef, float(np.sqrt(np.mean(residual**2)))

    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(times.size, d=float(np.median(np.diff(times))))
    b0 = 2 * np.pi * freqs[1 + int(np.argmax(spectrum[1:]))]
    bin_width = 2 * np.pi / (times[-1] - times[0])
    lo = max(0.25 * bin_width, b0 - 1.5 * bin_width)
    hi = b0 + 1.5 * bin_width
    res = minimize_scalar(lambda b: linear_fit(b)[1], bounds=(lo, hi),
                          method="bounded",
                          options={"xatol": 1e-9 * max(b0, bin_width)})
    b = float(res.x)
    (a_sin, a_cos, offset), rms = linear_fit(b)
    return FitResult(amplitude=float(np.hypot(a_sin, a_cos)),
                     angular_frequency=b,
                     phase=float(np.arctan2(a_cos, a_sin)),
                     offset=float(offset), period=2 * np.pi / b,
                     rms_residual=rms)
