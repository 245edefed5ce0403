import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h2discord.discord import PURE_TOL, DiscordPoint, MeasurementConfig, \
    SearchConfig, _Evaluator, _basis_vectors, _embedded, _marginals, \
    discord, is_pure
from h2discord.dynamics import DensityMatrix, initial_state
from h2discord.errors import NotDensityMatrix
from h2discord.operators import ModelParams
from h2discord.statespace import INITIAL_COMPONENTS, BasisState, \
    StateSpace, generate_space, table_space

from oracles import brute_force_trace_A, brute_force_trace_B, \
    free_hamiltonian, full_grid_minimum, full_space, random_density, \
    random_pure, reference_conditional_entropies, \
    reference_search_minimum, resolve_free, von_neumann_entropy

FULL = full_space()
LN2 = np.log(2.0)

# minimal two-qubit playground: photon-down label against one electron
# label, everything else frozen at zero
TINY = StateSpace([BasisState.from_string(b)
                   for b in ("0000000", "0001000", "0100000", "0101000")],
                  mode="closure")


def marginals(rho):
    """(rho_A, rho_B), the photon-pair and matter marginals discord() uses."""
    return _marginals(_embedded(rho))


def projectors(config):
    """|u><u| of each outcome vector u of the measurement, in the order
    00', 10', 01', 11'."""
    return [np.outer(u, u.conj()) for u in _basis_vectors(*config)]


def product_state(rng=None, rho_a=None, rho_b=None):
    rng = rng or np.random.default_rng(0)
    if rho_a is None:
        rho_a = random_density(rng, 4)
    if rho_b is None:
        rho_b = random_density(rng, 32)
    return DensityMatrix(np.kron(rho_a, rho_b), FULL), rho_a, rho_b


class TestPartialTraces:
    def test_initial_state_photon_marginal(self):
        rho_a = marginals(initial_state(table_space()))[0]
        assert rho_a[0, 0].real == pytest.approx(1.0, abs=1e-14)

    def test_product_state_recovers_factor(self):
        rho, rho_a, _ = product_state()
        assert np.allclose(marginals(rho)[0], rho_a, atol=1e-14)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = DensityMatrix(random_pure(rng, 128), FULL)
            assert np.abs(marginals(rho)[0]
                          - brute_force_trace_B(rho.mat, FULL)).max() <= 1e-12
            assert np.abs(marginals(rho)[1]
                          - brute_force_trace_A(rho.mat, FULL)).max() <= 1e-12

    def test_reduced_space_oracle(self):
        rng = np.random.default_rng(43)
        sp = table_space()
        for _ in range(10):
            rho = DensityMatrix(random_density(rng, 26), sp)
            assert np.abs(marginals(rho)[0]
                          - brute_force_trace_B(rho.mat, sp)).max() <= 1e-12
            assert np.abs(marginals(rho)[1]
                          - brute_force_trace_A(rho.mat, sp)).max() <= 1e-12

    def test_joint_pure_gives_pure_matter_marginal(self):
        rho_b = marginals(initial_state(table_space()))[1]
        purity = (rho_b @ rho_b).trace().real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(128, dtype=complex) / 128, FULL)
        assert np.allclose(marginals(rho)[1], np.eye(32) / 32,
                           atol=1e-15)

    def test_schmidt_spectra_agree(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            rho = DensityMatrix(random_pure(rng, 128), FULL)
            spec_a = np.linalg.eigvalsh(marginals(rho)[0])
            spec_b = np.linalg.eigvalsh(marginals(rho)[1])
            top = np.sort(spec_b)[-4:]
            assert np.allclose(np.sort(spec_a), top, atol=1e-10)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0, 0, 0])) == 0.0

    def test_maximally_mixed(self):
        value = von_neumann_entropy(np.eye(4) / 4)
        assert value == pytest.approx(np.log(4), abs=1e-12)

    def test_half_quarter_quarter(self):
        value = von_neumann_entropy(np.diag([0.5, 0.25, 0.25]))
        assert value == pytest.approx(1.5 * LN2, abs=1e-12)

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            von_neumann_entropy(np.eye(4))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NotDensityMatrix):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_never_negative(self):
        rho = np.diag([1.0 - 1e-13, 1e-13])
        assert von_neumann_entropy(rho) >= 0.0


def classical_correlated_state():
    """Equal mixture of |p1=0>|b0> and |p1=1>|b1> on the full space."""
    rho = np.zeros((128, 128), dtype=complex)
    i0 = FULL.states.index(BasisState.from_string("0000000"))
    i1 = FULL.states.index(BasisState.from_string("1010000"))
    rho[i0, i0] = 0.5
    rho[i1, i1] = 0.5
    return DensityMatrix(rho, FULL)


def bell_state():
    v = np.zeros(128, dtype=complex)
    v[FULL.states.index(BasisState.from_string("0000000"))] = 1 / np.sqrt(2)
    v[FULL.states.index(BasisState.from_string("1010000"))] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), FULL)


def mutual_info(rho):
    """I of discord()'s record, which no search setting changes."""
    return discord(rho, SearchConfig(theta_points=3)).mutual_info


class TestMutualInformation:
    def test_product_state(self):
        rho, _, _ = product_state()
        assert mutual_info(rho) == pytest.approx(0.0, abs=1e-9)

    def test_pure_state_doubles_marginal_entropy(self):
        rng = np.random.default_rng(5)
        rho = DensityMatrix(random_pure(rng, 128), FULL)
        s_a = von_neumann_entropy(marginals(rho)[0])
        assert mutual_info(rho) == pytest.approx(2 * s_a, abs=1e-8)

    def test_classical_correlated(self):
        assert mutual_info(classical_correlated_state()) == \
            pytest.approx(LN2, abs=1e-12)


class TestProjectors:
    def test_computational_basis(self):
        pset = projectors(MeasurementConfig(theta=0.0, theta_prime=0.0))
        for k, pos in enumerate((0, 2, 1, 3)):
            expected = np.zeros((4, 4))
            expected[pos, pos] = 1.0
            assert np.allclose(pset[k], expected, atol=1e-15)

    def test_diagonal_basis_uniform_projector(self):
        pset = projectors(MeasurementConfig(theta=np.pi / 4,
                                            theta_prime=np.pi / 4))
        assert np.allclose(pset[0], np.full((4, 4), 0.25), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, np.pi / 2), st.floats(0, np.pi / 2),
           st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    def test_projector_algebra(self, theta, theta_p, phi, phi_p):
        pset = projectors(MeasurementConfig(theta, theta_p, phi, phi_p))
        total = sum(pset)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        for k, pk in enumerate(pset):
            assert np.abs(pk - pk.conj().T).max() <= 1e-12
            assert np.abs(pk @ pk - pk).max() <= 1e-12
            evals = np.linalg.eigvalsh(pk)
            assert np.abs(evals - [0, 0, 0, 1]).max() <= 1e-12
            for j, pj in enumerate(pset):
                if j != k:
                    assert np.abs(pk @ pj).max() <= 1e-12

    def test_tied_coefficient_pattern(self):
        # with theta'=theta and no phases, entries follow the signed
        # C0..C4 pattern of the tied construction
        from oracles import tied_pattern_projectors
        rng = np.random.default_rng(13)
        for theta in rng.uniform(0, np.pi / 2, size=5):
            pset = projectors(MeasurementConfig(theta, theta))
            for got, want in zip(pset, tied_pattern_projectors(theta)):
                assert np.abs(got - want).max() <= 1e-15


def conditional_entropy(rho, angles) -> float:
    """Sum_k p_k S(rho_k) of the measurement at `angles`, the value
    `discord()` computes."""
    return _Evaluator(_embedded(rho)).conditional_entropies([angles])[0]


def probabilities(rho, angles):
    return _Evaluator(_embedded(rho)).probabilities(angles)


class TestConditionalEntropy:
    def test_product_state_is_undisturbed(self):
        rng = np.random.default_rng(21)
        rho, _, rho_b = product_state(rng)
        angles = (0.7, 0.2, 1.1, 0.4)
        assert conditional_entropy(rho, angles) == \
            pytest.approx(von_neumann_entropy(rho_b), abs=1e-8)
        assert probabilities(rho, angles).sum() == \
            pytest.approx(1.0, abs=1e-9)

    def test_pure_state_collapses_matter(self):
        assert conditional_entropy(bell_state(), (0.5, 0.3, 0.0, 0.0)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_classical_state_own_and_conjugate_basis(self):
        rho = classical_correlated_state()
        own = (0.0, 0.0, 0.0, 0.0)
        assert conditional_entropy(rho, own) == pytest.approx(0.0, abs=1e-12)
        assert sorted(probabilities(rho, own)) == \
            pytest.approx([0, 0, 0.5, 0.5], abs=1e-12)
        conjugate = (np.pi / 4, 0.0, 0.0, 0.0)
        assert conditional_entropy(rho, conjugate) == \
            pytest.approx(LN2, abs=1e-12)

    def test_routes_agree(self):
        # the evaluator's batched route and the oracle's einsum sandwich
        # must agree
        rng = np.random.default_rng(31)
        rho = DensityMatrix(random_density(rng, 26), table_space())
        angles = (0.4, 1.1, 2.2, 5.0)
        oracle = reference_conditional_entropies(_embedded(rho), *angles)[0]
        assert conditional_entropy(rho, angles) == \
            pytest.approx(oracle, abs=1e-11)


class TestClassicalCorrelation:
    def test_product_state(self):
        rho, _, _ = product_state()
        j = discord(rho, SearchConfig(
            theta_points=5, phi_points=5)).classical_corr
        assert abs(j) <= 1e-9

    def test_pure_state(self):
        rng = np.random.default_rng(8)
        rho = DensityMatrix(random_pure(rng, 128), FULL)
        s_b = von_neumann_entropy(marginals(rho)[1], trace_tol=1e-6)
        j = discord(rho, SearchConfig(
            theta_points=3, phi_points=3)).classical_corr
        assert j == pytest.approx(s_b, abs=1e-9)

    def test_bell_pair(self):
        point = discord(bell_state(),
                        SearchConfig(theta_points=9))
        assert point.classical_corr == pytest.approx(LN2, abs=1e-9)

    def test_argmin_reproduces_value(self):
        rng = np.random.default_rng(9)
        rho = DensityMatrix(random_density(rng, 26), table_space())
        search = SearchConfig(theta_points=9)
        point = discord(rho, search)
        value = conditional_entropy(rho, point.argmin_config)
        s_b = von_neumann_entropy(marginals(rho)[1])
        assert s_b - value == pytest.approx(point.classical_corr, abs=1e-9)


def werner_state(q=0.7):
    """Mixed correlated state on the tiny embedded two-qubit system."""
    phi = np.zeros(4, dtype=complex)
    phi[TINY.states.index(BasisState.from_string("0000000"))] = 1 / np.sqrt(2)
    phi[TINY.states.index(BasisState.from_string("0101000"))] = 1 / np.sqrt(2)
    mat = q * np.outer(phi, phi.conj()) + (1 - q) * np.eye(4) / 4
    return DensityMatrix(mat, TINY)


class TestDiscord:
    def test_product_state(self):
        rho, _, _ = product_state()
        point = discord(rho, SearchConfig(theta_points=5, phi_points=5))
        assert abs(point.discord) <= 1e-8
        point.check()

    def test_pure_states_give_marginal_entropy(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            rho = DensityMatrix(random_pure(rng, 128), FULL)
            point = discord(rho, SearchConfig(theta_points=3, phi_points=3))
            assert point.discord == pytest.approx(point.s_a, abs=1e-6)
            point.check()

    def test_classical_classical_state(self):
        weights = np.array([[0.4, 0.1], [0.2, 0.3]])
        rho = np.zeros((128, 128), dtype=complex)
        for i in range(2):
            for j in range(2):
                idx = FULL.states.index(BasisState(i, 0, j, 0, 0, 0, 0))
                rho[idx, idx] = weights[i, j]
        point = discord(DensityMatrix(rho, FULL),
                        SearchConfig(theta_points=5))
        assert abs(point.discord) <= 1e-6

    def test_werner_state_bounds_and_determinism(self):
        rho = werner_state()
        search = SearchConfig(theta_points=9, phi_points=9)
        one = discord(rho, search)
        two = discord(rho, search)
        assert one.discord > 0.01
        assert one == two
        one.check()

    def test_local_phase_invariance(self):
        rho = werner_state()
        search = SearchConfig(phi_points=17)
        base = discord(rho, search)
        # phase rotation of the photon-down mode: acts on the two
        # states with p2 = 1 (sorted positions 2 and 3 of the space)
        v = np.array([1.0, 1.0, np.exp(-0.8j), np.exp(-0.8j)])
        rotated = DensityMatrix(rho.mat * np.outer(v, v.conj()), TINY)
        moved = discord(rotated, search)
        assert moved.discord == pytest.approx(base.discord, abs=1e-6)

    def test_grid_refinement_consistency(self):
        rho = werner_state(0.55)
        coarse = discord(rho, SearchConfig(theta_points=17, phi_points=9))
        fine = discord(rho, SearchConfig(theta_points=33, phi_points=17))
        assert abs(coarse.classical_corr - fine.classical_corr) <= 1e-4

    def test_lexicographic_tie_break(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, TINY)
        point = discord(rho, SearchConfig(theta_points=5, phi_points=5))
        assert point.argmin_config == (0.0, 0.0, 0.0, 0.0)

    def test_unnormalised_state_fails_on_its_trace(self):
        # sum p = tr rho, so an off trace must be named as such, not as a
        # broken discord bound; mixed and pure states alike
        search = SearchConfig(theta_points=5)
        for state in (werner_state(), bell_state()):
            discord(DensityMatrix((1 + 1e-12) * state.mat, state.space),
                    search)
            for scale in (1.1, 1 + 1e-8):
                rho = DensityMatrix(scale * state.mat, state.space)
                with pytest.raises(NotDensityMatrix, match="trace deviates"):
                    discord(rho, search)

    def test_row_shape(self):
        point = discord(werner_state(), SearchConfig(theta_points=5), t=1.5)
        row = point.row()
        assert len(row) == len(DiscordPoint.CSV_HEADER.split(","))
        assert row[0] == 1.5


class TestFreeRotationInvariance:
    def test_discord_unchanged_by_resonant_free_terms(self):
        # the resonant diagonal terms act as local phase rotations on
        # both subsystems; the phase-complete search family must absorb
        # them
        from h2discord.dynamics import SimConfig, evolve
        from h2discord.operators import OperatorMatrix, build_hamiltonian, \
            build_jump_channels

        params = ModelParams(gamma_up=1e7, gamma_down=1e7, gamma_phn=1e7)
        sp = table_space()
        h = build_hamiltonian(params, sp).mat
        channels = build_jump_channels(params, sp)
        sim = SimConfig(dt=1e-10, t_end=8.3e-9, record_stride=83)
        search = SearchConfig(phi_points=17)
        points = {}
        for label, freq in (("rotating", 0.0), ("lab", 1e8)):
            lab = OperatorMatrix(h + free_hamiltonian(sp, freq, freq, freq),
                                 sp)
            traj = evolve(initial_state(sp), lab, channels, sim)
            points[label] = discord(traj.density(len(traj) - 1), search)
        assert points["lab"].discord == pytest.approx(
            points["rotating"].discord, abs=1e-6)


class TestSearchBounds:
    @pytest.mark.parametrize("field,value", [
        ("theta_points", 0), ("theta_points", -2), ("theta_points", 1),
        ("phi_points", 0), ("theta_points", 1001), ("phi_points", 100)])
    def test_search_config_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_conditional_entropy_nonnegative_and_j_capped(self):
        rng = np.random.default_rng(55)
        sp = table_space()
        search = SearchConfig(theta_points=7)
        for _ in range(10):
            rho = DensityMatrix(random_density(rng, 26), sp)
            value = conditional_entropy(rho, (
                rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2), 0.0,
                0.0))
            assert value >= 0.0
            j = discord(rho, search).classical_corr
            s_b = von_neumann_entropy(marginals(rho)[1])
            assert j <= s_b + 1e-9
            assert j >= -1e-12


CLOSURE = generate_space(INITIAL_COMPONENTS,
                         ModelParams(gamma_up=1e7, gamma_down=1e7,
                                     gamma_phn=1e7), mode="closure")
# the CLI's default family and a four-free-angle family
PRESETS = {"cli": SearchConfig(theta_points=17),
           "four-angle": SearchConfig(theta_points=5, phi_points=5)}
# the package re-exports the discord() function under the module's name
discord_module = importlib.import_module("h2discord.discord")
SEARCH_MINIMUM = discord_module._search_minimum


@pytest.fixture
def search_calls(monkeypatch):
    """Count the calls that reach the grid-plus-refinement search."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return SEARCH_MINIMUM(*args, **kwargs)

    monkeypatch.setattr(discord_module, "_search_minimum", counting)
    return calls


def mixed_with_identity(space, impurity, rng):
    """(1 - e)|psi><psi| + e I/d whose 1 - tr(rho^2) equals impurity."""
    d = space.size
    # 1 - tr(rho^2) = e (2 - e) (1 - 1/d)
    e = 1.0 - np.sqrt(1.0 - impurity / (1.0 - 1.0 / d))
    mat = (1 - e) * random_pure(rng, d) + e * np.eye(d) / d
    return DensityMatrix(mat, space)


class TestPureClosedForm:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("space", [table_space(), CLOSURE, FULL],
                             ids=["table", "closure", "full"])
    def test_matches_search_on_pure_states(self, space, preset,
                                           search_calls):
        search = PRESETS[preset]
        rng = np.random.default_rng(61)
        for _ in range(4):
            rho = DensityMatrix(random_pure(rng, space.size), space)
            assert is_pure(rho)
            point = discord(rho, search)
            assert search_calls == []
            value, want_cfg, want_probs, *_ = SEARCH_MINIMUM(
                discord_module._embedded(rho), search)
            want_j = point.s_b - value
            assert abs(point.classical_corr - want_j) <= 1e-9
            assert abs(point.discord - (point.mutual_info - want_j)) <= 1e-9
            assert point.argmin_config == want_cfg
            assert np.array_equal(point.outcome_probs, want_probs)
            assert point.pure
            point.check()

    def test_tolerance_boundary(self, search_calls):
        rng = np.random.default_rng(62)
        search = PRESETS["cli"]
        below = mixed_with_identity(table_space(), 0.5 * PURE_TOL, rng)
        above = mixed_with_identity(table_space(), 1.5 * PURE_TOL, rng)
        assert is_pure(below) and not is_pure(above)
        assert discord(below, search).pure
        assert search_calls == []
        point = discord(above, search)
        assert len(search_calls) == 1
        assert not point.pure


# presets covering each way a grid point can repeat another
GRID_PRESETS = {
    "zero-phase": SearchConfig(),
    "four-angle": SearchConfig(theta_points=5, phi_points=5),
}


class TestGridDeduplication:
    @pytest.mark.parametrize("search,kept,total", [
        (SearchConfig(), 256, 289),
        (SearchConfig(phi_points=17), 14641, 83521)],
        ids=["zero-phase", "four-angle"])
    def test_kept_point_counts(self, search, kept, total):
        plan = discord_module._plan(search)
        sizes = [search.theta_points] * 2 + [search.phi_points] * 2
        assert (len(plan.kept), int(np.prod(sizes))) == (kept, total)
        assert plan.points.shape == (kept, len(sizes))

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_kept_indices_rise_strictly(self, preset):
        indices = discord_module._plan(GRID_PRESETS[preset]).kept
        assert indices[0] == 0 and np.all(np.diff(indices) > 0)

    # an odd and an even phase period, and one phase point
    @pytest.mark.parametrize("search", [SearchConfig(), SearchConfig(5, 4),
                                        SearchConfig(6, 7)], ids=str)
    def test_kept_are_the_first_point_of_each_id_pair(self, search):
        n_theta, n_phi = search.theta_points, search.phi_points
        i, i_p, j, j_p = np.indices([n_theta] * 2 + [n_phi] * 2) \
            .reshape(4, -1)
        ids = np.stack([
            discord_module._measurement_ids(i, j, n_theta, n_phi),
            discord_module._measurement_ids(i_p, j_p, n_theta, n_phi)],
            axis=1)
        first = np.unique(ids, axis=0, return_index=True)[1]
        assert discord_module._plan(search).kept.tolist() \
            == sorted(first.tolist())

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_same_minimum_as_full_grid(self, preset):
        search = GRID_PRESETS[preset]
        rng = np.random.default_rng(71)
        for _ in range(3):
            rho4 = discord_module._embedded(
                DensityMatrix(random_density(rng, 26), table_space()))
            ev = discord_module._Evaluator(rho4)
            free, _, want = full_grid_minimum(ev.conditional_entropies,
                                              search)
            point, value = discord_module._grid_minimum(ev, search)
            assert abs(value - want) <= 1e-15
            assert tuple(point) == resolve_free(free, search)


class TestPlan:
    def test_geometry_is_linspace_over_the_angle_bounds(self):
        # each free column's spacing is its grid's first step, bit for bit
        bounds = [(0.0, np.pi / 2)] * 2 + [(0.0, 2 * np.pi)] * 2
        for theta_points in range(2, 41):
            for phi_points in range(1, 18):
                search = SearchConfig(theta_points, phi_points)
                plan = discord_module._plan(search)
                counts = [theta_points] * 2 + [phi_points] * 2
                free = [n > 1 for n in counts]
                spacing = [grid[1] - grid[0] for grid in (
                    np.linspace(lo, hi, n) for (lo, hi), n
                    in zip(bounds, counts)) if len(grid) > 1]
                steps = [max(spacing)]
                while steps[-1] > discord_module.REFINE_TOL / 4:
                    steps.append(steps[-1] / 2)
                assert plan.free.tolist() == free, search
                assert plan.spacing.tolist() == spacing, search
                assert plan.steps.tolist() == steps, search
                assert plan.steps[-1] <= discord_module.REFINE_TOL / 4 \
                    < plan.steps[-2]

    def test_moves_step_each_free_column_both_ways(self):
        plan = discord_module._plan(SearchConfig(phi_points=3))
        assert plan.moves.tolist() == [
            [-1, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 1, 0, 0],
            [0, 0, -1, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 1]]
        assert discord_module._plan(SearchConfig()).moves.tolist() \
            == [[-1, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 1, 0, 0]]

    def test_equal_configs_share_one_read_only_plan(self):
        plan = discord_module._plan(SearchConfig(17, 1))
        assert discord_module._plan(SearchConfig()) is plan
        for array in plan:
            assert not array.flags.writeable

    @pytest.mark.parametrize("phi_points,guard", [(1, (5, 1)), (3, (5, 5))])
    def test_warm_start_reads_the_cached_guard_plan(self, phi_points,
                                                    guard):
        rng = np.random.default_rng(5)
        ev = discord_module._Evaluator(discord_module._embedded(
            DensityMatrix(random_density(rng, 26), table_space())))
        search = SearchConfig(theta_points=5, phi_points=phi_points)
        warm = MeasurementConfig(0.1, 0.2)
        discord_module._warm_start(ev, search, warm)
        misses = discord_module._plan.cache_info().misses
        discord_module._plan(SearchConfig(*guard))  # built by that call
        discord_module._warm_start(ev, search, warm)
        assert discord_module._plan.cache_info().misses == misses


def coupling_groups_state(rng):
    """A mixed 26-state density whose B labels split into two groups
    that no entry of rho couples."""
    space = table_space()
    group = np.array([space.b_labels[b][0] for b in space.b_index])
    mat = random_density(rng, space.size)
    mat[group[:, None] != group[None, :]] = 0.0
    return DensityMatrix(mat / mat.trace(), space)


class TestAgainstReferenceSearch:
    def test_coupling_groups_keep_the_spectra(self):
        rng = np.random.default_rng(72)
        rho4 = discord_module._embedded(coupling_groups_state(rng))
        ev = discord_module._Evaluator(rho4)
        assert sorted(group.shape[1] for group in ev.groups) == [4, 12]
        angles = rng.uniform(0, np.pi / 2, size=(4, 20))
        angles[2:] *= 4
        assert np.abs(ev.conditional_entropies(angles.T)
                      - reference_conditional_entropies(rho4, *angles)
                      ).max() <= 1e-13

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_no_lower_j_than_reference(self, preset):
        search = PRESETS[preset]
        rng = np.random.default_rng(73)
        states = [random_density(rng, 26) for _ in range(3)]
        states.append(coupling_groups_state(rng).mat)
        for mat in states:
            rho = DensityMatrix(mat, table_space())
            point = discord(rho, search)
            old, _ = reference_search_minimum(
                discord_module._embedded(rho), search)
            assert not point.pure
            assert point.classical_corr >= point.s_b - old - 1e-9


# both photon qubits against two matter bits, every (A, B) pair present
CQ_SPACE = StateSpace([BasisState.from_string(a + b)
                       for a in ("00", "01", "10", "11")
                       for b in ("00000", "00100", "00010", "00110")],
                      mode="closure")


def cq_state(theta, theta_p, probs, b_vectors):
    """sum_k p_k |u_k><u_k| x |s_k><s_k| for the product basis u_k at
    (theta, theta_p) with zero phases: its measured conditional entropy
    is zero there and positive for every other basis, so that is its
    only minimum."""
    basis = discord_module._basis_vectors(theta, theta_p, 0.0, 0.0)
    order = [4 * a + b for a, b in zip(CQ_SPACE.a_index, CQ_SPACE.b_index)]
    vectors = [np.kron(u, s)[order] for u, s in zip(basis, b_vectors)]
    mat = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, vectors))
    return DensityMatrix(mat, CQ_SPACE)


class TestDiscordSeries:
    def test_basin_jump_takes_the_full_grid(self):
        rng = np.random.default_rng(81)
        b_vectors = [v / np.linalg.norm(v) for v in
                     rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))]
        probs = [np.array([0.4, 0.3, 0.2, 0.1]) + shift
                 for shift in np.linspace(0, 0.02, 6)[:, None]
                 * np.array([1, -1, 1, -1])]
        # three snapshots at the (0, 0) corner, three at an interior point
        # more than one guard spacing (pi/8) away on both angles
        angles = [(0.0, 0.0)] * 3 + [(1.0, 0.9)] * 3
        rhos = [cq_state(*a, p, b_vectors) for a, p in zip(angles, probs)]
        search = PRESETS["cli"]
        points = discord_module.discord_series(rhos, search, range(6))
        assert [pt.full_grid for pt in points] == [True, False, False,
                                                   True, False, False]
        for pt, rho, (theta, theta_p) in zip(points, rhos, angles):
            cold = discord(rho, search)
            assert not pt.pure and cold.full_grid
            assert abs(pt.classical_corr - cold.classical_corr) <= 1e-12
            got = pt.argmin_config
            assert np.abs(np.subtract(got[:2], (theta, theta_p))).max() \
                <= 1e-3

    def test_refine_moves_to_an_interior_minimum(self):
        # a random mixture's minimum lies off the grid
        rng = np.random.default_rng(1)
        rho = DensityMatrix(random_density(rng, 26), table_space())
        search = PRESETS["cli"]
        point = discord(rho, search)
        grid = np.linspace(0, np.pi / 2, search.theta_points)
        assert np.abs(grid - point.argmin_config.theta_prime).min() > 1e-6
        assert point.full_grid and point.refine_moved

    def test_refine_stays_at_a_corner_argmin(self):
        # the (0, 0) basis of a classical-quantum state is its only
        # minimum, a grid point that no step improves
        rng = np.random.default_rng(81)
        b_vectors = [v / np.linalg.norm(v) for v in
                     rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))]
        rho = cq_state(0.0, 0.0, [0.4, 0.3, 0.2, 0.1], b_vectors)
        point = discord(rho, PRESETS["cli"])
        assert not point.pure and not any(point.argmin_config)
        assert point.full_grid and not point.refine_moved

    def test_interior_minima_match_the_cold_search(self):
        # a path between two random mixtures, whose minima lie off the
        # grid, so the refine moves; the angles may differ from the cold
        # search's on a flat minimum, J may not
        rng = np.random.default_rng(1)
        start, end = random_density(rng, 26), random_density(rng, 26)
        rhos = [DensityMatrix((1 - s) * start + s * end, table_space())
                for s in np.linspace(0, 1, 40)]
        search = PRESETS["cli"]
        points = discord_module.discord_series(rhos, search, range(40))
        assert 1 <= sum(pt.full_grid for pt in points) < len(points)
        grid = np.linspace(0, np.pi / 2, search.theta_points)
        assert any(np.abs(grid - pt.argmin_config.theta_prime).min() > 1e-6
                   for pt in points)
        for i, (pt, rho) in enumerate(zip(points, rhos)):
            assert pt.t == i
            cold = discord(rho, search)
            assert abs(pt.classical_corr - cold.classical_corr) <= 1e-12
            if i % 8 == 0:
                old, _ = reference_search_minimum(
                    discord_module._embedded(rho), search)
                assert pt.classical_corr >= pt.s_b - old - 1e-9
