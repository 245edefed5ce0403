import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from h2discord.dynamics import MAX_RECORDS, TAYLOR_THETA, DensityMatrix, \
    SimConfig, _record_points, evolve, initial_state
from h2discord.errors import NotHermitian, PositivityLost, SpaceMismatch, \
    StateMissing
from h2discord.discord import _embedded, _marginals
from h2discord.operators import ModelParams, OperatorMatrix, \
    build_hamiltonian, build_jump_channels
from h2discord.statespace import INITIAL_COMPONENTS, BasisState, \
    GatingPolicy, generate_space, table_space

from oracles import dissipator, free_hamiltonian, full_space, \
    liouvillian, random_density

PARAMS = ModelParams()
G = PARAMS.g_up


def lab_hamiltonian(params, space, gating=GatingPolicy(), up=10 * G,
                    down=10 * G, phn=10 * G):
    """The model's Hamiltonian plus the free terms of a lab frame with
    mode frequencies up, down and phn."""
    h = build_hamiltonian(params, space, gating).mat
    return OperatorMatrix(h + free_hamiltonian(space, up, down, phn), space)


def pure(v, space):
    """The density matrix of the state vector v."""
    return DensityMatrix(np.outer(v, v.conj()), space)


def two_level_space(g_omega=G):
    """Bond-broken seed plus its phonon partner, coupled by g_omega."""
    params = dataclasses.replace(PARAMS, g_up=0, g_down=0, zeta=0,
                                 g_omega=g_omega)
    space = generate_space([BasisState.from_string("0000010")], params,
                           include_dissipation=False)
    return space, params


def open_params(g_omega, gamma):
    """The criterion-5 family: interaction picture, every mode lossy."""
    return dataclasses.replace(PARAMS, g_omega=g_omega, gamma_up=gamma,
                               gamma_down=gamma, gamma_phn=gamma)


def damped_mode_space():
    params = dataclasses.replace(PARAMS, g_up=0, g_down=0, g_omega=0, zeta=0,
                                 gamma_up=G)
    space = generate_space([BasisState.from_string("1000000")], params,
                           include_dissipation=True)
    return space, params


class TestInitialState:
    def test_pure_unit_trace(self):
        rho = initial_state(table_space())
        assert abs(rho.trace() - 1.0) < 1e-14
        assert abs(rho.purity() - 1.0) < 1e-14

    def test_component_weights(self):
        sp = table_space()
        rho = initial_state(sp)
        for bits in ("0000010", "0000110", "0001010", "0001110"):
            idx = sp.states.index(BasisState.from_string(bits))
            assert rho.mat[idx, idx].real == pytest.approx(0.25, abs=1e-15)

    def test_sign_pattern(self):
        sp = table_space()
        rho = initial_state(sp)
        plus = sp.states.index(BasisState.from_string("0000010"))
        minus = sp.states.index(BasisState.from_string("0000110"))
        plus2 = sp.states.index(BasisState.from_string("0001010"))
        assert rho.mat[plus, minus].real == pytest.approx(-0.25)
        assert rho.mat[plus, plus2].real == pytest.approx(0.25)

    def test_photon_marginal_is_vacuum(self):
        rho_a = _marginals(_embedded(initial_state(table_space())))[0]
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho_a, expected, atol=1e-14)

    def test_missing_component(self):
        sp = generate_space([BasisState.from_string("0000000")], PARAMS)
        with pytest.raises(StateMissing):
            initial_state(sp)


class TestPropagator:
    @pytest.mark.parametrize("state", ["initial", "random"])
    def test_closed_records_match_dense_expm(self, state):
        # free terms of 10g (a lab frame) turn E t into hundreds of
        # radians by the last record
        sp = table_space()
        h = lab_hamiltonian(PARAMS, sp)
        rho0 = initial_state(sp) if state == "initial" else DensityMatrix(
            random_density(np.random.default_rng(13), sp.size), sp)
        traj = evolve(rho0, h, [], SimConfig(dt=1e-10, t_end=1e-6,
                                             record_stride=2500))
        assert len(traj) == 5
        for t, snap in zip(traj.times, traj.snapshots):
            u = scipy.linalg.expm(-1j * h.mat * t)
            expected = u @ rho0.mat @ u.conj().T
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(snap - expected).max() <= 1e-12 * scale, t

    def test_closed_records_do_not_depend_on_the_stride(self):
        # 600 steps: strides 15 and 20 share the records at every 60th
        sp = table_space()
        h = build_hamiltonian(PARAMS, sp)
        rho0 = initial_state(sp)
        runs = [evolve(rho0, h, [], SimConfig(dt=1e-10, t_end=6e-8,
                                               record_stride=stride))
                for stride in (15, 20)]
        common = [{int(round(t / 1e-10)): snap
                   for t, snap in zip(run.times, run.snapshots)
                   if int(round(t / 1e-10)) % 60 == 0} for run in runs]
        assert sorted(common[0]) == sorted(common[1]) == list(
            range(0, 601, 60))
        for step, snap in common[0].items():
            assert np.array_equal(snap, common[1][step]), step

    def test_not_hermitian(self):
        sp = table_space()
        mat = np.zeros((26, 26), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            evolve(initial_state(sp), OperatorMatrix(mat, sp), [],
                   SimConfig(dt=1e-10, t_end=1e-9))

    def test_rabi_populations(self):
        space, params = two_level_space()
        h = build_hamiltonian(params, space)
        rho0 = pure(
            np.eye(2)[space.states.index(BasisState.from_string("0000010"))],
            space)
        cfg = SimConfig(dt=1e-10, t_end=5e-7, record_stride=50)
        traj = evolve(rho0, h, [], cfg)
        idx = space.states.index(BasisState.from_string("0000010"))
        for t, snap in zip(traj.times, traj.snapshots):
            expected = np.cos(params.g_omega * t) ** 2
            assert snap[idx, idx].real == pytest.approx(expected, abs=1e-10)


class TestDissipator:
    def test_no_channels(self):
        out = dissipator(initial_state(table_space()).mat, [])
        assert np.all(out == 0)

    def test_single_mode_rate(self):
        space, params = damped_mode_space()
        channels = build_jump_channels(params, space)
        excited = space.states.index(BasisState.from_string("1000000"))
        ground = space.states.index(BasisState.from_string("0000000"))
        rho = np.zeros((2, 2), dtype=complex)
        rho[excited, excited] = 1.0
        out = dissipator(rho, channels)
        expected = np.zeros((2, 2))
        expected[ground, ground] = params.gamma_up
        expected[excited, excited] = -params.gamma_up
        assert np.allclose(out, expected)

    def test_traceless_for_random_state(self):
        rng = np.random.default_rng(11)
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=G, gamma_down=G,
                                     gamma_phn=G)
        channels = build_jump_channels(params, sp)
        raw = rng.normal(size=(26, 26)) + 1j * rng.normal(size=(26, 26))
        mat = raw @ raw.conj().T
        out = dissipator(mat / mat.trace(), channels)
        scale = max(1.0, np.abs(out).max())
        assert abs(out.trace()) <= 1e-12 * 26 * scale
        assert np.abs(out - out.conj().T).max() < 1e-12 * scale



class TestEvolve:
    def test_free_state_is_stationary(self):
        sp = table_space()
        h = OperatorMatrix(np.zeros((26, 26), dtype=complex), sp)
        rho0 = initial_state(sp)
        traj = evolve(rho0, h, [], SimConfig(dt=1e-9, t_end=1e-7,
                                             record_stride=10))
        for snap in traj.snapshots:
            assert np.allclose(snap, rho0.mat, atol=1e-14)

    def test_damped_mode_matches_exponential(self):
        space, params = damped_mode_space()
        h = build_hamiltonian(params, space)
        channels = build_jump_channels(params, space)
        excited = space.states.index(BasisState.from_string("1000000"))
        rho0 = pure(np.eye(2)[excited], space)
        cfg = SimConfig(dt=1e-10, t_end=2e-7, record_stride=100)
        traj = evolve(rho0, h, channels, cfg)
        for t, snap in zip(traj.times, traj.snapshots):
            assert snap[excited, excited].real == pytest.approx(
                np.exp(-params.gamma_up * t), abs=1e-3)

    def test_composed_hops_match_literal_loop(self):
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=G, gamma_down=G,
                                     gamma_phn=G)
        h = build_hamiltonian(params, sp)
        channels = build_jump_channels(params, sp)
        rho0 = initial_state(sp)
        fast = evolve(rho0, h, channels,
                      SimConfig(dt=1e-10, t_end=6e-8, record_stride=20))
        slow = evolve(rho0, h, channels,
                      SimConfig(dt=1e-10, t_end=6e-8, record_stride=15))
        assert np.abs(fast.snapshots[-1] - slow.snapshots[-1]).max() < 1e-12

    def test_trace_and_hermiticity_over_many_steps(self):
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=G, gamma_down=G,
                                     gamma_phn=G)
        h = build_hamiltonian(params, sp)
        channels = build_jump_channels(params, sp)
        cfg = SimConfig(dt=1e-13, t_end=2e-7, record_stride=50000)
        traj = evolve(initial_state(sp), h, channels, cfg)
        for snap in traj.snapshots:
            assert abs(snap.trace().real - 1.0) <= 1e-9
            assert np.abs(snap - snap.conj().T).max() <= 1e-12

    def test_closed_run_preserves_purity_and_energy(self):
        sp = table_space()
        h = build_hamiltonian(PARAMS, sp)
        rho0 = initial_state(sp)
        cfg = SimConfig(dt=1e-10, t_end=1e-5, record_stride=1000)
        traj = evolve(rho0, h, [], cfg)
        h_norm = np.linalg.norm(h.mat, 2)
        e0 = (rho0.mat @ h.mat).trace().real
        for snap in traj.snapshots:
            assert abs((snap @ snap).trace().real - 1.0) <= 1e-8
            assert abs((snap @ h.mat).trace().real - e0) <= 1e-8 * h_norm

    def test_positivity_guard(self):
        # a closed run keeps the eigenvalues of rho0, so a negative one
        # is still there at the first record
        space, params = two_level_space()
        h = build_hamiltonian(params, space)
        rho0 = DensityMatrix(np.diag([1.5, -0.5]).astype(complex), space)
        with pytest.raises(PositivityLost):
            evolve(rho0, h, [], SimConfig(dt=1e-10, t_end=1e-9))

    def test_space_mismatch(self):
        sp_a, sp_b = table_space(), table_space()
        h = build_hamiltonian(PARAMS, sp_b)
        with pytest.raises(SpaceMismatch):
            evolve(initial_state(sp_a), h, [],
                   SimConfig(dt=1e-10, t_end=1e-9))

    def test_channel_space_mismatch(self):
        sp_a, sp_b = table_space(), table_space()
        h = build_hamiltonian(PARAMS, sp_a)
        params = dataclasses.replace(PARAMS, gamma_phn=G)
        channels = build_jump_channels(params, sp_b)
        with pytest.raises(SpaceMismatch, match="channel"):
            evolve(initial_state(sp_a), h, channels,
                   SimConfig(dt=1e-10, t_end=1e-9))

    def test_records_include_start_and_end(self):
        sp = table_space()
        h = build_hamiltonian(PARAMS, sp)
        traj = evolve(initial_state(sp), h, [],
                      SimConfig(dt=1e-10, t_end=1.05e-8, record_stride=25))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.05e-8, rel=1e-12)
        assert np.all(np.diff(traj.times) > 0)


class TestExactPropagator:
    def test_damped_mode_matches_exponential_to_round_off(self):
        space, params = damped_mode_space()
        h = build_hamiltonian(params, space)
        channels = build_jump_channels(params, space)
        excited = space.states.index(BasisState.from_string("1000000"))
        rho0 = pure(np.eye(2)[excited], space)
        cfg = SimConfig(dt=1e-10, t_end=2e-7, record_stride=100)
        traj = evolve(rho0, h, channels, cfg)
        for t, snap in zip(traj.times, traj.snapshots):
            assert snap[excited, excited].real == pytest.approx(
                np.exp(-params.gamma_up * t), abs=1e-12)

    def test_matches_dense_expm_of_liouvillian(self):
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=0.5 * G, gamma_down=G,
                                     gamma_phn=0.3 * G, influx_phn=0.1 * G)
        h = build_hamiltonian(params, sp)
        channels = build_jump_channels(params, sp)
        n = sp.size
        gen = liouvillian(h.mat, channels).toarray()
        # the dense generator is the Lindblad equation on row-major vec
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = DensityMatrix(raw @ raw.conj().T / n, sp)
        rhs = -1j * (h.mat @ rho.mat - rho.mat @ h.mat) \
            + dissipator(rho.mat, channels)
        assert np.abs(gen @ rho.mat.reshape(-1) - rhs.reshape(-1)).max() \
            <= 1e-12 * np.abs(rhs).max()

        hop = scipy.linalg.expm(gen * 2e-8)
        rho0 = initial_state(sp)
        traj = evolve(rho0, h, channels,
                      SimConfig(dt=1e-10, t_end=6e-8, record_stride=200))
        vec = rho0.mat.reshape(-1)
        assert len(traj) == 4
        for snap in traj.snapshots[1:]:
            vec = hop @ vec
            assert np.abs(snap - vec.reshape(n, n)).max() <= 1e-12

    def test_interval_call_matches_hop_per_record(self):
        # 650 steps at stride 100: six equal hops, then a short one; a
        # trace of 1.1 shows that no record rescales rho
        sp = table_space()
        params = open_params(0.5 * G, G)
        h = build_hamiltonian(params, sp)
        channels = build_jump_channels(params, sp)
        rho0 = DensityMatrix(1.1 * initial_state(sp).mat, sp)
        cfg = SimConfig(dt=1e-10, t_end=6.5e-8, record_stride=100)
        traj = evolve(rho0, h, channels, cfg)
        gen = liouvillian(h.mat, channels)
        rho, previous = rho0.mat, 0
        assert len(traj) == 8
        for step, snap in zip(_record_points(650, 100), traj.snapshots[1:]):
            rho = expm_multiply(gen * ((step - previous) * cfg.dt),
                                rho.reshape(-1)).reshape(sp.size, sp.size)
            rho = 0.5 * (rho + rho.conj().T)
            previous = step
            assert np.abs(snap - rho).max() <= 1e-12

    def test_substeps_match_dense_expm(self):
        # free terms of 10g (a lab frame) make ||L||_1 tau far above
        # TAYLOR_THETA, so every hop takes substeps; a random state has
        # coherences between every pair of excitation numbers, which
        # those terms rotate fastest
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=0.5 * G, gamma_down=G,
                                     gamma_phn=0.3 * G, influx_up=0.2 * G,
                                     influx_phn=0.1 * G)
        h = lab_hamiltonian(params, sp)
        channels = build_jump_channels(params, sp)
        gen = liouvillian(h.mat, channels).toarray()
        tau = 4e-7
        assert np.abs(gen).sum(axis=0).max() * tau > 25 * TAYLOR_THETA
        hop = scipy.linalg.expm(gen * tau)
        rho0 = DensityMatrix(random_density(np.random.default_rng(7),
                                            sp.size), sp)
        traj = evolve(rho0, h, channels,
                      SimConfig(dt=1e-10, t_end=1.2e-6, record_stride=4000))
        vec = rho0.mat.reshape(-1)
        assert len(traj) == 4
        for snap in traj.snapshots[1:]:
            vec = hop @ vec
            assert np.abs(snap - vec.reshape(sp.size, sp.size)).max() \
                <= 1e-12

    def test_vacuum_without_influx_stays_fixed(self):
        # the vacuum has nothing to lose and no coherent move, so L leaves
        # it alone
        sp = table_space()
        params = dataclasses.replace(PARAMS, gamma_up=G, gamma_down=G,
                                     gamma_phn=G)
        vacuum = np.eye(sp.size)[sp.states.index(BasisState.from_string(
            "0000000"))]
        rho0 = pure(vacuum, sp)
        traj = evolve(rho0, build_hamiltonian(params, sp),
                      build_jump_channels(params, sp),
                      SimConfig(dt=1e-10, t_end=1e-6, record_stride=1000))
        for snap in traj.snapshots:
            assert np.abs(snap - rho0.mat).max() <= 1e-15

    def test_trajectory_keeps_guard_margins(self):
        sp = table_space()
        params = open_params(0.5 * G, G)
        traj = evolve(initial_state(sp), build_hamiltonian(params, sp),
                      build_jump_channels(params, sp),
                      SimConfig(dt=1e-10, t_end=2e-7, record_stride=100))
        lows = [np.linalg.eigvalsh(snap)[0] for snap in traj.snapshots[1:]]
        drifts = [abs(snap.trace().real - 1) for snap in traj.snapshots[1:]]
        assert traj.min_eigenvalue == min(lows)
        assert traj.min_eigenvalue_t == traj.times[1 + int(np.argmin(lows))]
        assert traj.max_trace_drift == max(drifts)
        assert -1e-12 <= traj.min_eigenvalue and traj.max_trace_drift < 1e-12
        # the margin before symmetrisation: every Taylor term of an open
        # hop is exactly Hermitian; the records are symmetrised
        assert traj.max_hermiticity_error == 0.0
        assert all(np.array_equal(snap, snap.conj().T)
                   for snap in traj.snapshots[1:])


class TestSubstepBound:
    @pytest.mark.parametrize("gating", [GatingPolicy(*switches) for switches
                                        in itertools.product((True, False),
                                                             repeat=2)])
    def test_generator_norm_within_twice_the_fields(self, gating):
        # ||L||_1 <= 2 (the sum of the couplings and rates), the bound by
        # which a config's Taylor substeps are counted, on all 128 states
        rng = np.random.default_rng(3)
        sp = full_space()
        for _ in range(5):
            params = ModelParams(*rng.uniform(0, 2 * G, 10))
            gen = liouvillian(build_hamiltonian(params, sp, gating).mat,
                              build_jump_channels(params, sp))
            bound = 2 * sum(dataclasses.astuple(params))
            assert abs(gen).sum(axis=0).max() <= bound * (1 + 1e-12)


class TestClosureSpace:
    @pytest.mark.parametrize("rates,gating", [
        (dict(gamma_up=G, gamma_down=G, gamma_phn=G, influx_up=0.3 * G),
         GatingPolicy()),
        ({}, GatingPolicy(tunneling_requires_broken_bond=False,
                          bond_term_requires_colocated=False))],
        ids=["lossy-influx", "ungated"])
    def test_closure_evolves_as_the_full_space(self, rates, gating):
        # the 128-state space adds only states the initial state cannot
        # reach, through a coherent move, a decay or an influx
        params = dataclasses.replace(open_params(0.5 * G, 0), **rates)
        sim = SimConfig(dt=1e-10, t_end=3e-7, record_stride=1000)
        full = full_space()
        closure = generate_space(INITIAL_COMPONENTS, params, gating)
        runs = [evolve(initial_state(sp),
                       build_hamiltonian(params, sp, gating),
                       build_jump_channels(params, sp), sim)
                for sp in (closure, full)]
        inside = [full.states.index(s) for s in closure]
        outside = np.setdiff1d(np.arange(full.size), inside)
        assert len(runs[0]) == len(runs[1]) == 4 and len(outside) > 70
        for small, large in zip(*(run.snapshots for run in runs)):
            embedded = np.zeros_like(large)
            embedded[np.ix_(inside, inside)] = small
            assert np.abs(embedded - large).max() <= 1e-13
            assert np.abs(large.diagonal()[outside]).sum() <= 1e-15


def model_run(rates, gating, mode, sim):
    """(space, its jump channels, the rotating-frame trajectory)."""
    params = dataclasses.replace(PARAMS, **rates)
    space = table_space() if mode == "table-compat" else \
        generate_space(INITIAL_COMPONENTS, params, gating)
    channels = build_jump_channels(params, space)
    return space, channels, evolve(
        initial_state(space), build_hamiltonian(params, space, gating),
        channels, sim)


class TestInteractionPicture:
    # closed under every gating, lossy and with influx, on both spaces
    pytestmark = [
        pytest.mark.parametrize("rates,gating", [
            *(({}, GatingPolicy(*flags))
              for flags in itertools.product((True, False), repeat=2)),
            (dict(gamma_up=G, gamma_down=G, gamma_phn=G), GatingPolicy()),
            (dict(gamma_up=0.5 * G, influx_up=0.3 * G, influx_phn=0.2 * G),
             GatingPolicy())],
            ids=[*("closed-" + "".join("TF"[not flag] for flag in flags)
                   for flags in itertools.product((True, False), repeat=2)),
                 "lossy", "influx"]),
        pytest.mark.parametrize("mode", ["table-compat", "closure"])]

    def test_free_terms_only_add_a_local_unitary(self, rates, gating, mode):
        # every move keeps p1 + l1, p2 + l2 and m + L, and every jump
        # changes one of them by one, so a lab frame's record is
        # U0 rho U0^dagger with U0 = exp(-i H_free t), a photon-pair part
        # times a matter part
        params = dataclasses.replace(PARAMS, **rates)
        sim = SimConfig(dt=1e-10, t_end=1.5e-7, record_stride=500)
        space, channels, rotating = model_run(rates, gating, mode, sim)
        free = free_hamiltonian(space, 10 * G, 7 * G, 13 * G).diagonal().real
        rho0 = initial_state(space)
        lab = evolve(rho0, lab_hamiltonian(params, space, gating, 10 * G,
                                           7 * G, 13 * G), channels, sim)
        assert len(lab) == len(rotating) == 4
        for t, snap, turned in zip(lab.times, rotating.snapshots,
                                   lab.snapshots):
            phase = np.exp(-1j * free * t)
            expected = phase[:, None] * snap * phase.conj()
            assert np.abs(turned - expected).max() <= 1e-13, t

    def test_every_record_is_real_in_the_gauge(self, rates, gating, mode):
        # every move and jump changes n = p1 + p2 + m + k by one, and
        # every initial component has n = 0, so with D = diag(i^n) the
        # generator maps real D^dagger rho D to real ones
        sim = SimConfig(dt=1e-10, t_end=1.5e-7, record_stride=100)
        space, _, traj = model_run(rates, gating, mode, sim)
        gauge = np.array([1j ** (s.p1 + s.p2 + s.m + s.k) for s in space])
        assert len(traj) == 16
        for t, snap in zip(traj.times, traj.snapshots):
            real = gauge.conj()[:, None] * snap * gauge
            assert np.abs(real.imag).max() <= 1e-13, t


class TestConfigsAndValidation:
    def test_sim_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1.0, t_end=0.5)
        with pytest.raises(ValueError):
            SimConfig(dt=1.0, t_end=2.0, record_stride=0)
        with pytest.raises(ValueError, match="t_end"):  # inf steps
            SimConfig(dt=1e-300, t_end=1e300)
        # gamma = 1e30g on the default grid: about 5e31 records
        with pytest.raises(ValueError, match="record_stride and t_end"):
            SimConfig(dt=2e-42, t_end=1.8e-6, record_stride=19635)
        # the initial state and one record per step
        SimConfig(dt=1.0, t_end=MAX_RECORDS - 1)
        with pytest.raises(ValueError, match="record_stride and t_end"):
            SimConfig(dt=1.0, t_end=MAX_RECORDS)

    def test_free_frequencies_leave_populations_alone(self):
        # resonant diagonal terms commute with every interaction, so
        # they only rotate phases that populations cannot see
        sp = table_space()
        with_frees = lab_hamiltonian(PARAMS, sp)
        without = build_hamiltonian(PARAMS, sp)
        cfg = SimConfig(dt=1e-10, t_end=8.3e-9, record_stride=83)
        rho0 = initial_state(sp)
        pop_a = evolve(rho0, with_frees, [], cfg).snapshots[-1].diagonal()
        pop_b = evolve(rho0, without, [], cfg).snapshots[-1].diagonal()
        assert np.abs(pop_a - pop_b).max() < 1e-12
