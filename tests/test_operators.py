import dataclasses
import itertools

import numpy as np
import pytest

from h2discord.errors import ImageOutsideSpace
from h2discord.operators import ModelParams, build_hamiltonian, \
    build_jump_channels
from h2discord.statespace import JUMPS, BasisState, GatingPolicy, \
    INITIAL_COMPONENTS, generate_space, table_space

from oracles import full_space, reference_ladder, total_excitations

PARAMS = ModelParams()
FULL = full_space()


class TestHamiltonian:
    def test_zero_params_zero_matrix(self):
        params = ModelParams(g_up=0, g_down=0, g_omega=0, zeta=0)
        h = build_hamiltonian(params, table_space())
        assert np.all(h.mat == 0)

    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = rng.uniform(0, 1e8, size=4)
            params = ModelParams(g_up=vals[0], g_down=vals[1],
                                 g_omega=vals[2], zeta=vals[3])
            h = build_hamiltonian(params, table_space())
            assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_bond_formation_matrix_element(self):
        sp = table_space()
        h = build_hamiltonian(PARAMS, sp)
        row = sp.states.index(BasisState.from_string("0010000"))
        col = sp.states.index(BasisState.from_string("0000010"))
        assert h.mat[row, col] == PARAMS.g_omega

    def test_commutes_with_excitation_count(self):
        h = build_hamiltonian(PARAMS, FULL)
        n = total_excitations(FULL)
        assert np.abs(h.mat @ n - n @ h.mat).max() == 0.0

    def test_all_relaxed_state_is_dark(self):
        h = build_hamiltonian(PARAMS, FULL)
        col = h.mat[:, FULL.states.index(BasisState.from_string("0000000"))]
        assert np.allclose(col, 0.0)

    def test_table_space_hamiltonian_ignores_gating(self):
        # each move that a switch opens leads out of the 26 table states
        rng = np.random.default_rng(11)
        sp = table_space()
        gatings = [GatingPolicy(*flags) for flags in itertools.product(
            (True, False), repeat=len(dataclasses.fields(GatingPolicy)))]
        for _ in range(200):
            values = rng.uniform(0, 2e7, 10) * (rng.random(10) < 0.7)
            params = ModelParams(*values)
            first, *rest = (build_hamiltonian(params, sp, gating).mat
                            for gating in gatings)
            assert all(np.array_equal(first, mat) for mat in rest)

    def test_ungated_bond_term_reaches_scattered_nuclei(self):
        h = build_hamiltonian(
            PARAMS, FULL, GatingPolicy(bond_term_requires_colocated=False))
        row = FULL.states.index(BasisState.from_string("0010001"))
        col = FULL.states.index(BasisState.from_string("0000011"))
        assert h.mat[row, col] == PARAMS.g_omega
        gated = build_hamiltonian(PARAMS, FULL)
        assert gated.mat[row, col] == 0.0


def reached(coupled):
    """The FULL states that the initial components reach through the
    nonzero entries of `coupled` (column to row)."""
    reached = {FULL.states.index(s) for s in INITIAL_COMPONENTS}
    frontier = list(reached)
    while frontier:
        for j in np.flatnonzero(coupled[:, frontier.pop()]):
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return {FULL.states[i] for i in reached}


GATINGS = [GatingPolicy(*flags) for flags in itertools.product(
    (False, True), repeat=len(dataclasses.fields(GatingPolicy)))]


class TestClosureMatchesHamiltonian:
    @pytest.mark.parametrize("flags", list(itertools.product((False, True),
                                                             repeat=2)))
    @pytest.mark.parametrize("zeta", [0.0, PARAMS.g_up])
    def test_closure_is_connected_component(self, flags, zeta):
        params = dataclasses.replace(PARAMS, zeta=zeta)
        gating = GatingPolicy(*flags)
        closure = generate_space(INITIAL_COMPONENTS, params, gating,
                                 include_dissipation=False)
        coupled = build_hamiltonian(params, FULL, gating).mat != 0
        assert set(closure) == reached(coupled)

    @pytest.mark.parametrize("flags", list(itertools.product((False, True),
                                                             repeat=2)))
    @pytest.mark.parametrize("rates", [{}, dict(influx_up=3e6,
                                                 influx_phn=3e6)],
                             ids=["decay", "influx"])
    def test_dissipative_closure_adds_the_jump_images(self, flags, rates):
        # every decay closes whatever its rate, an influx only when on
        params = dataclasses.replace(PARAMS, **rates)
        gating = GatingPolicy(*flags)
        closure = generate_space(INITIAL_COMPONENTS, params, gating)
        coupled = build_hamiltonian(params, FULL, gating).mat != 0
        decays = {jump.decay: 1.0 for jump in JUMPS}
        for ch in build_jump_channels(dataclasses.replace(params, **decays),
                                      FULL):
            coupled[ch.dst, ch.src] = True
        assert set(closure) == reached(coupled)
        assert len(closure) > len(generate_space(
            INITIAL_COMPONENTS, params, gating, include_dissipation=False))


def gauge_label(space):
    """n = p1 + p2 + m + k of each state of the space."""
    return np.array([s.p1 + s.p2 + s.m + s.k for s in space])


class TestGauge:
    # every move and jump changes n by one, so with D = diag(i^n) the
    # Hamiltonian is imaginary and each jump a fixed phase times a real
    # operator: the generator maps real D^dagger rho D to real ones
    @pytest.mark.parametrize("gating", GATINGS,
                             ids=lambda g: "".join("TF"[not flag] for flag
                                                   in dataclasses.astuple(g)))
    def test_hamiltonian_is_imaginary_in_the_gauge(self, gating):
        rng = np.random.default_rng(5)
        gauge = np.array([1, 1j, -1, -1j])[gauge_label(FULL) % 4]
        for _ in range(20):
            values = rng.uniform(0, 2e7, 10) * (rng.random(10) < 0.7)
            h = build_hamiltonian(ModelParams(*values), FULL, gating).mat
            assert np.abs((gauge.conj()[:, None] * h * gauge).real).max() \
                == 0.0

    @pytest.mark.parametrize("jump,raising", [
        (jump, raising) for jump in JUMPS for raising in (False, True)],
        ids=[f"{jump.label}-{'influx' if raising else 'decay'}"
             for jump in JUMPS for raising in (False, True)])
    def test_each_jump_changes_n_by_one(self, jump, raising):
        field = jump.influx if raising else jump.decay
        (ch,) = build_jump_channels(
            dataclasses.replace(PARAMS, **{field: 1e6}), FULL)
        n = gauge_label(FULL)
        assert len(ch.src) == 64
        assert set(n[ch.dst] - n[ch.src]) == {1 if raising else -1}


# loss and influx at 0.3 g on every mode
LOSSY = dataclasses.replace(PARAMS, gamma_up=3e6, gamma_down=3e6,
                            gamma_phn=3e6)
INFLUX = dataclasses.replace(PARAMS, influx_up=3e6, influx_down=3e6,
                             influx_phn=3e6)
# (space, whether its influx images are in it)
MAP_SPACES = {
    "full": (FULL, True),
    "table": (table_space(), True),
    "closure": (generate_space(INITIAL_COMPONENTS, LOSSY), False),
    "closure-influx": (generate_space(INITIAL_COMPONENTS, INFLUX), True),
}
MAP_CASES = [(name, jump, raising) for name, (_, influx) in MAP_SPACES.items()
             for jump in JUMPS for raising in (False, True)[:1 + influx]]


class TestJumpChannels:
    @pytest.mark.parametrize(
        "name, jump, raising", MAP_CASES,
        ids=[f"{n}-{j.label}-{'influx' if r else 'decay'}"
             for n, j, r in MAP_CASES])
    def test_map_matches_reference_ladder(self, name, jump, raising):
        space = MAP_SPACES[name][0]
        field = jump.influx if raising else jump.decay
        params = dataclasses.replace(PARAMS, **{field: 2.5e6})
        (ch,) = build_jump_channels(params, space)
        assert ch.space is space and ch.rate == 2.5e6
        pairs = sorted(zip(ch.dst.tolist(), ch.src.tolist()))
        rows, cols = np.nonzero(reference_ladder(space, jump.label, raising))
        assert pairs == sorted(zip(rows.tolist(), cols.tolist()))

    def test_order_decays_then_influxes(self):
        rates = dict(gamma_up=1e6, gamma_down=2e6, gamma_phn=3e6,
                     influx_up=4e6, influx_down=5e6, influx_phn=6e6)
        params = dataclasses.replace(PARAMS, **rates)
        channels = build_jump_channels(params, FULL)
        assert [ch.rate for ch in channels] == list(rates.values())

    def test_no_rates_no_channels(self):
        assert build_jump_channels(PARAMS, table_space()) == []

    def test_table_compat_drops_images_outside_the_table(self):
        sp = table_space()
        (ch,) = build_jump_channels(
            dataclasses.replace(PARAMS, influx_phn=1e6), sp)
        raisable = [s for s in sp if s.m == 0]
        assert 0 < len(ch.src) < len(raisable)

    def test_closure_space_missing_image(self):
        # the phonon-raise image of |0000010> is outside this closure
        sp = generate_space([BasisState.from_string("0000010")],
                            dataclasses.replace(PARAMS, g_up=0, g_down=0,
                                                g_omega=0, zeta=0),
                            include_dissipation=False)
        with pytest.raises(ImageOutsideSpace):
            build_jump_channels(dataclasses.replace(PARAMS, influx_phn=1e6),
                                sp)


class TestModelParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(g_omega=-1.0)

    @pytest.mark.parametrize("name", ["g_up", "g_omega", "zeta",
                                      "gamma_phn", "influx_up", "influx_phn"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f
                                      in dataclasses.fields(ModelParams)])
    def test_max_scale(self, name):
        # every field is a coupling or a rate
        params = ModelParams(**{"g_up": 3e8, name: 9e8})
        assert params.max_scale() == 9e8
