"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight runs are fixtures, the reproduction's sweep configs
among them (`sweep_runs` in conftest.py), so the invariant checks can
inspect every snapshot and discord record those runs produced without
re-running anything.
"""

import dataclasses
import time

import numpy as np
import pytest

from h2discord.analysis import evolve_model, fit_law, fit_period, \
    state_population
from h2discord.discord import SearchConfig, _basis_vectors, _embedded, \
    _marginals, discord, discord_series
from h2discord.dynamics import DensityMatrix, SimConfig, evolve, \
    initial_state
from h2discord.operators import ModelParams, build_hamiltonian, \
    build_jump_channels
from h2discord.statespace import BasisState, INITIAL_COMPONENTS, \
    TABLE_STATES, generate_space, table_space

from oracles import brute_force_trace_A, brute_force_trace_B, \
    full_space, random_density, random_pure, reference_search_minimum, \
    tied_pattern_projectors

G = 1.0e7
BASE = ModelParams(g_up=G, g_down=G, g_omega=0.5 * G, zeta=G)
OPEN = dataclasses.replace(BASE, gamma_up=G, gamma_down=G, gamma_phn=G)
VACUUM = BasisState.from_string("0000000")

EXPECTED_C_TUNNELING = 6.29e-7
EXPECTED_C_NO_TUNNELING = 4.44e-7

OPEN_SEARCH = SearchConfig()


def open_sim(params) -> SimConfig:
    """400 records over 2e-6 s.  The propagator is exact, so dt only
    fixes the record grid."""
    dt = 5e-14 * G / params.max_scale()
    steps = int(round(2e-6 / dt))
    return SimConfig(dt=dt, t_end=2e-6, record_stride=steps // 400)


def report(criterion, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {flag}: {detail}")


class RunLog:
    """Invariant extremes over recorded snapshots and discord records."""

    def __init__(self):
        self.max_trace_dev = 0.0
        self.max_herm = 0.0
        self.min_eig = np.inf
        self.max_purity_dev = 0.0
        self.max_energy_dev = 0.0
        self.min_d = np.inf
        self.max_d_excess = -np.inf
        self.max_d_at_zero = 0.0
        self.snapshots = 0
        self.points = 0

    def add_run(self, traj, h_mat=None):
        if h_mat is not None:
            h_norm = np.linalg.norm(h_mat, 2)
            e0 = (traj.snapshots[0] @ h_mat).trace().real
        for snap in traj.snapshots:
            self.snapshots += 1
            self.max_trace_dev = max(self.max_trace_dev,
                                     abs(snap.trace().real - 1.0))
            self.max_herm = max(self.max_herm,
                                np.abs(snap - snap.conj().T).max())
            self.min_eig = min(self.min_eig,
                               float(np.linalg.eigvalsh(snap)[0]))
            if h_mat is not None:
                self.max_purity_dev = max(
                    self.max_purity_dev,
                    abs((snap @ snap).trace().real - 1.0))
                self.max_energy_dev = max(
                    self.max_energy_dev,
                    abs((snap @ h_mat).trace().real - e0) / h_norm)

    def add_points(self, points):
        for p in points:
            p.check()
            self.points += 1
            self.min_d = min(self.min_d, p.discord)
            self.max_d_excess = max(
                self.max_d_excess,
                p.discord - min(p.mutual_info, p.s_a))
            if p.t == 0.0:
                self.max_d_at_zero = max(self.max_d_at_zero, abs(p.discord))


@pytest.fixture(scope="module")
def logs():
    return {"closed": RunLog(), "open": RunLog()}


def period_law_constant(law_run, log):
    """c of a period law run by the `sweep_runs` fixture, and the seconds
    its runs took; their snapshots and discord records go to `log`."""
    runs, seconds = law_run
    samples = []
    for x, point, traj, points in runs:
        h = build_hamiltonian(point.params, traj.space, point.gating)
        log.add_run(traj, h.mat)
        log.add_points(points)
        fit, _ = fit_period([p.t for p in points],
                            [p.discord for p in points], point.params.zeta,
                            point.params.g_up)
        samples.append((x, fit.period))
    constant, _ = fit_law(samples)
    return constant, seconds


@pytest.fixture(scope="module")
def law_tunneling(logs, sweep_runs):
    return period_law_constant(sweep_runs("fig8a"), logs["closed"])


@pytest.fixture(scope="module")
def law_no_tunneling(logs, sweep_runs):
    return period_law_constant(sweep_runs("fig8b"), logs["closed"])


@pytest.fixture(scope="module")
def open_endpoint(logs):
    started = time.time()
    traj = evolve_model(OPEN, open_sim(OPEN))
    # discord at every tenth record and the last
    picks = sorted({*range(0, len(traj), 10), len(traj) - 1})
    points = discord_series([traj.density(i) for i in picks], OPEN_SEARCH,
                            [float(traj.times[i]) for i in picks])
    logs["open"].add_run(traj)
    logs["open"].add_points(points)
    return traj, points, time.time() - started


# per tunneling setting, the sweeps of peak discord: over g_omega at
# gamma = g, and over gamma at g_omega = 0.5g
OPEN_SWEEPS = {"zeta=g": ("fig9", "fig11"), "zeta=0": ("fig10", "fig12")}


@pytest.fixture(scope="module")
def open_peaks(logs, sweep_runs):
    """{setting: (peaks by g_omega, peaks by gamma)}, each a sorted list
    of (x, the peak D of that sweep point); every snapshot and discord
    record goes to the open log."""
    def peaks(name):
        runs, _ = sweep_runs(name)
        for _, _, traj, points in runs:
            logs["open"].add_run(traj)
            logs["open"].add_points(points)
        return {x: (point, max(p.discord for p in points))
                for x, point, _, points in runs}

    result = {}
    for setting, (coupling_sweep, rate_sweep) in OPEN_SWEEPS.items():
        by_coupling, by_rate = peaks(coupling_sweep), peaks(rate_sweep)
        # gamma = g is the g_omega = 0.5g point of the coupling sweep
        by_rate[1.0] = by_coupling[0.5]
        shared = by_rate[1.0][0].params
        assert all(shared == dataclasses.replace(
            point.params, gamma_up=G, gamma_down=G, gamma_phn=G)
            for point, _ in by_rate.values())
        result[setting] = [sorted((x, peak) for x, (_, peak) in sweep.items())
                           for sweep in (by_coupling, by_rate)]
    return result


class TestCriterion1:
    def test_state_space_fidelity(self):
        started = time.time()
        compat = generate_space(INITIAL_COMPONENTS, BASE,
                                include_dissipation=True, mode="table-compat")
        closure = generate_space(INITIAL_COMPONENTS, BASE,
                                 include_dissipation=True, mode="closure")
        elapsed = time.time() - started
        exact = set(compat.states) == set(TABLE_STATES)
        superset = set(closure.states) >= set(TABLE_STATES)
        ok = exact and superset and elapsed < 1.0
        report(1, ok, f"compat==26-set: {exact}, closure superset: "
                      f"{superset} ({closure.size} states), {elapsed:.3f} s")
        assert exact
        assert superset
        assert elapsed < 1.0


class TestCriterion2:
    def test_period_law_with_tunneling(self, law_tunneling):
        constant, elapsed = law_tunneling
        rel = abs(constant - EXPECTED_C_TUNNELING) / EXPECTED_C_TUNNELING
        ok = rel <= 0.15 and elapsed < 1800
        report(2, ok, f"c = {constant:.4g} s vs "
                      f"{EXPECTED_C_TUNNELING:.4g} s ({100 * rel:.2f}% off), "
                      f"{elapsed:.0f} s runtime")
        assert rel <= 0.15
        assert elapsed < 1800


class TestCriterion3:
    def test_period_law_without_tunneling(self, law_tunneling,
                                          law_no_tunneling):
        with_t, _ = law_tunneling
        without_t, elapsed = law_no_tunneling
        rel = abs(without_t - EXPECTED_C_NO_TUNNELING) \
            / EXPECTED_C_NO_TUNNELING
        ordered = without_t < with_t
        ok = rel <= 0.15 and ordered and elapsed < 1800
        report(3, ok, f"c = {without_t:.4g} s vs "
                      f"{EXPECTED_C_NO_TUNNELING:.4g} s ({100 * rel:.2f}% "
                      f"off), c(zeta=0) < c(zeta=g): {ordered}")
        assert rel <= 0.15
        assert ordered
        assert elapsed < 1800


class TestCriterion4:
    def test_open_system_endpoint(self, open_endpoint):
        traj, points, elapsed = open_endpoint
        pop = state_population(traj.density(len(traj) - 1), VACUUM)
        d_final = points[-1].discord
        ok = pop >= 0.99 and d_final <= 1e-3 and elapsed < 300
        report(4, ok, f"pop(|0000000>) = {pop:.4f} (need >= 0.99), "
                      f"D = {d_final:.4g} (need <= 1e-3) at t = 2e-6 s, "
                      f"{elapsed:.0f} s runtime")
        assert elapsed < 300
        assert pop >= 0.99, (
            f"vacuum population at t=2e-6 s is {pop:.4f}; the model "
            f"reaches 0.99 only near t=4.2e-6 s at these parameters")
        assert d_final <= 1e-3, (
            f"discord at t=2e-6 s is {d_final:.4g}; it falls below 1e-3 "
            f"only near t=4.2e-6 s at these parameters")


class TestCriterion5:
    @pytest.mark.parametrize("setting", OPEN_SWEEPS)
    def test_peak_discord_monotonicity(self, open_peaks, setting):
        by_coupling, by_rate = open_peaks[setting]
        coupling_ok = all(a[1] <= b[1] for a, b in
                          zip(by_coupling, by_coupling[1:]))
        rate_ok = all(a[1] >= b[1] for a, b in zip(by_rate, by_rate[1:]))
        ok = coupling_ok and rate_ok
        report(5, ok, f"{setting}: peak D vs g_omega "
                      f"{[round(v, 4) for _, v in by_coupling]} nondecreasing:"
                      f" {coupling_ok}; vs gamma "
                      f"{[round(v, 4) for _, v in by_rate]} nonincreasing: "
                      f"{rate_ok}")
        assert coupling_ok
        assert rate_ok


class TestCriterion6:
    def test_invariant_suite(self, logs, law_tunneling, law_no_tunneling,
                             open_endpoint, open_peaks):
        closed, open_log = logs["closed"], logs["open"]
        checks = {
            "closed trace": closed.max_trace_dev <= 1e-9,
            "closed hermiticity": closed.max_herm <= 1e-12,
            "closed positivity": closed.min_eig >= -1e-8,
            "closed purity": closed.max_purity_dev <= 1e-8,
            "closed energy": closed.max_energy_dev <= 1e-8,
            "open trace": open_log.max_trace_dev <= 1e-9,
            "open hermiticity": open_log.max_herm <= 1e-12,
            "open positivity": open_log.min_eig >= -1e-8,
            "discord lower bound": min(closed.min_d, open_log.min_d) >= -1e-9,
            "discord upper bound": max(closed.max_d_excess,
                                       open_log.max_d_excess) <= 1e-6,
            "discord at t=0": max(closed.max_d_at_zero,
                                  open_log.max_d_at_zero) <= 1e-8,
        }
        ok = all(checks.values())
        counts = (f"{closed.snapshots + open_log.snapshots} snapshots, "
                  f"{closed.points + open_log.points} discord records")
        report(6, ok, counts + "; " + ", ".join(
            name for name, good in checks.items() if not good) if not ok
            else counts + "; all bounds hold")
        for name, good in checks.items():
            assert good, name

    def test_grid_refinement_consistency(self, open_endpoint):
        traj, _, _ = open_endpoint
        coarse = SearchConfig(theta_points=17)
        fine = SearchConfig(theta_points=33)
        worst = 0.0
        for i in (40, 120, 200, 280, 360):
            rho = traj.density(i)
            j_coarse = discord(rho, coarse).classical_corr
            j_fine = discord(rho, fine).classical_corr
            worst = max(worst, abs(j_coarse - j_fine))
        ok = worst <= 1e-4
        report(6, ok, f"grid doubling moves J by at most {worst:.2e} nats")
        assert worst <= 1e-4

    def test_search_matches_reference(self, open_endpoint):
        # every discord record of the criterion-4 run (every 10th
        # snapshot) against the full-grid, minimize_scalar search
        traj, points, _ = open_endpoint
        lowest, worst = 0.0, 0.0
        for i, point in zip(range(0, len(traj), 10), points):
            assert point.t == traj.times[i]
            old, _ = reference_search_minimum(_embedded(traj.density(i)),
                                              OPEN_SEARCH)
            gain = point.classical_corr - (point.s_b - old)
            lowest, worst = min(lowest, gain), max(worst, abs(gain))
        ok = lowest >= -1e-12 and worst <= 1e-9
        report(6, ok, f"J - J_reference in [{lowest:.2e}, {worst:.2e}] "
                      f"nats over {len(points)} records")
        assert lowest >= -1e-12
        assert worst <= 1e-9


class TestCriterion7:
    def test_partial_trace_oracle(self):
        rng = np.random.default_rng(2024)
        full = full_space()
        worst = 0.0
        for i in range(200):
            mat = random_pure(rng, 128) if i % 2 else random_density(rng, 128)
            rho_a, rho_b = _marginals(_embedded(DensityMatrix(mat, full)))
            worst = max(
                worst,
                np.abs(rho_a - brute_force_trace_B(mat, full)).max(),
                np.abs(rho_b - brute_force_trace_A(mat, full)).max())
        ok = worst <= 1e-12
        report(7, ok, f"partial traces vs oracle on 200 states: "
                      f"max dev {worst:.2e}")
        assert worst <= 1e-12

    def test_reduced_vs_full_space_evolution(self):
        params = dataclasses.replace(OPEN, g_up=0.0, g_down=0.0,
                                     gamma_up=0.2 * G, gamma_down=0.2 * G,
                                     gamma_phn=0.2 * G)
        sim = SimConfig(dt=5e-11, t_end=3e-8, record_stride=100)
        results = {}
        for space in (table_space(), full_space()):
            h = build_hamiltonian(params, space)
            channels = build_jump_channels(params, space)
            results[space.mode] = (space,
                                   evolve(initial_state(space), h, channels,
                                          sim))
        table, traj_t = results["table-compat"]
        full, traj_f = results["full"]
        idx = [full.states.index(s) for s in table]
        worst = 0.0
        for snap_t, snap_f in zip(traj_t.snapshots, traj_f.snapshots):
            projected = snap_f[np.ix_(idx, idx)]
            worst = max(worst, np.abs(projected - snap_t).max())
        ok = worst <= 1e-8
        report(7, ok, f"reduced vs projected full evolution: "
                      f"max dev {worst:.2e}")
        assert worst <= 1e-8

    def test_single_mode_damping(self):
        params = dataclasses.replace(BASE, g_up=0, g_down=0, g_omega=0,
                                     zeta=0, gamma_up=G)
        space = generate_space([BasisState.from_string("1000000")], params,
                               include_dissipation=True)
        h = build_hamiltonian(params, space)
        channels = build_jump_channels(params, space)
        excited = space.states.index(BasisState.from_string("1000000"))
        v = np.eye(2)[excited]
        rho0 = DensityMatrix(np.outer(v, v.conj()), space)
        traj = evolve(rho0, h, channels,
                      SimConfig(dt=1e-10, t_end=3e-7, record_stride=50))
        worst = max(abs(snap[excited, excited].real - np.exp(-G * t))
                    for t, snap in zip(traj.times, traj.snapshots))
        ok = worst <= 1e-3
        report(7, ok, f"single-mode damping vs exp(-gamma t): "
                      f"max dev {worst:.2e}")
        assert worst <= 1e-3

    def test_two_level_exchange(self):
        params = dataclasses.replace(BASE, g_up=0, g_down=0, zeta=0,
                                     g_omega=G)
        space = generate_space([BasisState.from_string("0000010")], params,
                               include_dissipation=False)
        h = build_hamiltonian(params, space)
        start = space.states.index(BasisState.from_string("0000010"))
        v = np.eye(2)[start]
        rho0 = DensityMatrix(np.outer(v, v.conj()), space)
        traj = evolve(rho0, h, [],
                      SimConfig(dt=1e-10, t_end=6e-7, record_stride=60))
        worst = max(abs(snap[start, start].real - np.cos(G * t) ** 2)
                    for t, snap in zip(traj.times, traj.snapshots))
        ok = worst <= 1e-4
        report(7, ok, f"two-level exchange vs cos^2(gt): "
                      f"max dev {worst:.2e}")
        assert worst <= 1e-4

    def test_pure_state_discord_is_marginal_entropy(self):
        rng = np.random.default_rng(77)
        full = full_space()
        search = SearchConfig(theta_points=3, phi_points=3)
        worst = 0.0
        for _ in range(50):
            point = discord(DensityMatrix(random_pure(rng, 128), full),
                            search)
            worst = max(worst, abs(point.discord - point.s_a))
        ok = worst <= 1e-6
        report(7, ok, f"pure-state discord vs S(A) on 50 states: "
                      f"max dev {worst:.2e}")
        assert worst <= 1e-6

    def test_uncorrelated_states_have_zero_discord(self):
        rng = np.random.default_rng(78)
        full = full_space()
        search = SearchConfig(theta_points=5)
        worst = 0.0
        for _ in range(10):
            mat = np.kron(random_density(rng, 4), random_density(rng, 32))
            point = discord(DensityMatrix(mat, full), search)
            worst = max(worst, abs(point.discord))
        weights = rng.dirichlet(np.ones(4)).reshape(2, 2)
        cc = np.zeros((128, 128), dtype=complex)
        for i in range(2):
            for j in range(2):
                idx = full.states.index(BasisState(i, 0, j, 0, 0, 0, 0))
                cc[idx, idx] = weights[i, j]
        point = discord(DensityMatrix(cc, full), search)
        worst_cc = abs(point.discord)
        ok = worst <= 1e-6 and worst_cc <= 1e-6
        report(7, ok, f"product-state discord {worst:.2e}, "
                      f"classical-classical discord {worst_cc:.2e}")
        assert worst <= 1e-6
        assert worst_cc <= 1e-6


class TestCriterion8:
    def test_projector_algebra(self):
        rng = np.random.default_rng(31415)
        eye = np.eye(4)
        worst = 0.0
        for _ in range(1000):
            theta, theta_p = rng.uniform(0, np.pi / 2, size=2)
            phi, phi_p = rng.uniform(0, 2 * np.pi, size=2)
            pset = [np.outer(u, u.conj())
                    for u in _basis_vectors(theta, theta_p, phi, phi_p)]
            total = sum(pset)
            worst = max(worst, np.abs(total - eye).max())
            for k, pk in enumerate(pset):
                worst = max(worst, np.abs(pk - pk.conj().T).max())
                worst = max(worst, np.abs(pk @ pk - pk).max())
                worst = max(worst,
                            np.abs(np.linalg.eigvalsh(pk)
                                   - [0, 0, 0, 1]).max())
                for j, pj in enumerate(pset):
                    if j != k:
                        worst = max(worst, np.abs(pk @ pj).max())
        ok = worst <= 1e-12
        report(8, ok, f"1000 random angle tuples: max algebra defect "
                      f"{worst:.2e}")
        assert worst <= 1e-12

    def test_tied_coefficient_pattern(self):
        rng = np.random.default_rng(27182)
        worst = 0.0
        for theta in rng.uniform(0, np.pi / 2, size=200):
            pset = [np.outer(u, u.conj())
                    for u in _basis_vectors(theta, theta, 0.0, 0.0)]
            for got, want in zip(pset, tied_pattern_projectors(theta)):
                worst = max(worst, np.abs(got - want).max())
        ok = worst <= 1e-15
        report(8, ok, f"tied-angle coefficient pattern: max dev {worst:.2e}")
        assert worst <= 1e-15
