import dataclasses
import itertools

import numpy as np
import pytest

from h2discord.errors import ImageOutsideSpace
from h2discord.operators import ModelParams, build_hamiltonian, \
    build_jump_channels, ladder
from h2discord.statespace import BasisState, GatingPolicy, \
    INITIAL_COMPONENTS, full_space, generate_space, table_space

from oracles import total_excitations

PARAMS = ModelParams()
FULL = full_space()


def basis_vector(space, bits):
    v = np.zeros(space.size, dtype=complex)
    v[space.states.index(BasisState.from_string(bits))] = 1.0
    return v


class TestLadder:
    def test_lower_removes_photon(self):
        op = ladder("pht_up", "lower", FULL)
        out = op.mat @ basis_vector(FULL, "1000000")
        assert np.allclose(out, basis_vector(FULL, "0000000"))

    def test_lower_annihilates_vacuum(self):
        op = ladder("pht_up", "lower", FULL)
        assert np.allclose(op.mat @ basis_vector(FULL, "0000000"), 0.0)

    def test_number_operator_eigenvalue(self):
        num = ladder("pht_up", "raise", FULL).mat @ \
            ladder("pht_up", "lower", FULL).mat
        v = basis_vector(FULL, "1000000")
        assert np.allclose(num @ v, v)

    def test_raise_is_adjoint_of_lower(self):
        for mode in ("pht_up", "pht_down", "phn"):
            low = ladder(mode, "lower", FULL).mat
            high = ladder(mode, "raise", FULL).mat
            assert np.array_equal(high, low.conj().T)

    def test_raise_capped_at_one_quantum(self):
        op = ladder("phn", "raise", FULL)
        assert np.allclose(op.mat @ basis_vector(FULL, "0010000"), 0.0)

    def test_closure_space_missing_image(self):
        # the phonon-raise image of |0000010> is outside this closure
        sp = generate_space([BasisState.from_string("0000010")],
                            dataclasses.replace(PARAMS, g_up=0, g_down=0,
                                                g_bond=0, zeta=0),
                            include_dissipation=False)
        with pytest.raises(ImageOutsideSpace):
            ladder("phn", "raise", sp)


class TestHamiltonian:
    def test_zero_params_zero_matrix(self):
        params = ModelParams(g_up=0, g_down=0, g_bond=0, zeta=0)
        h = build_hamiltonian(params, table_space())
        assert np.all(h.mat == 0)

    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = rng.uniform(0, 1e8, size=4)
            params = ModelParams(g_up=vals[0], g_down=vals[1],
                                 g_bond=vals[2], zeta=vals[3])
            h = build_hamiltonian(params, table_space())
            assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_bond_formation_matrix_element(self):
        sp = table_space()
        h = build_hamiltonian(PARAMS, sp)
        row = sp.states.index(BasisState.from_string("0010000"))
        col = sp.states.index(BasisState.from_string("0000010"))
        assert h.mat[row, col] == PARAMS.g_bond

    def test_commutes_with_excitation_count(self):
        h = build_hamiltonian(PARAMS, FULL)
        n = total_excitations(FULL)
        assert np.abs(h.mat @ n - n @ h.mat).max() == 0.0

    def test_all_relaxed_state_is_dark(self):
        h = build_hamiltonian(PARAMS, FULL)
        col = h.mat[:, FULL.states.index(BasisState.from_string("0000000"))]
        assert np.allclose(col, 0.0)

    def test_literal_tunneling_is_diagonal_shift(self):
        sp = table_space()
        gated = build_hamiltonian(PARAMS, sp,
                                  GatingPolicy(literal_tunneling_form=True))
        plain = build_hamiltonian(dataclasses.replace(PARAMS, zeta=0), sp)
        diff = gated.mat - plain.mat
        assert np.allclose(np.diag(np.diag(diff)), diff)
        broken = sp.states.index(BasisState.from_string("0000010"))
        formed = sp.states.index(BasisState.from_string("0000000"))
        assert diff[broken, broken] == PARAMS.zeta
        assert diff[formed, formed] == 0.0

    def test_ungated_bond_term_reaches_scattered_nuclei(self):
        h = build_hamiltonian(
            PARAMS, FULL, GatingPolicy(bond_term_requires_colocated=False))
        row = FULL.states.index(BasisState.from_string("0010001"))
        col = FULL.states.index(BasisState.from_string("0000011"))
        assert h.mat[row, col] == PARAMS.g_bond
        gated = build_hamiltonian(PARAMS, FULL)
        assert gated.mat[row, col] == 0.0


class TestClosureMatchesHamiltonian:
    @pytest.mark.parametrize("flags", list(itertools.product((False, True),
                                                             repeat=3)))
    @pytest.mark.parametrize("zeta", [0.0, PARAMS.g_up])
    def test_closure_is_connected_component(self, flags, zeta):
        params = dataclasses.replace(PARAMS, zeta=zeta)
        gating = GatingPolicy(*flags)
        closure = generate_space(INITIAL_COMPONENTS, params, gating,
                                 include_dissipation=False)
        coupled = build_hamiltonian(params, FULL, gating).mat != 0
        reached = {FULL.states.index(s) for s in INITIAL_COMPONENTS}
        frontier = list(reached)
        while frontier:
            for j in np.flatnonzero(coupled[:, frontier.pop()]):
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
        assert set(closure) == {FULL.states[i] for i in reached}


class TestJumpChannels:
    def test_three_dissipation_channels(self):
        params = dataclasses.replace(PARAMS, gamma_up=1e7, gamma_down=1e7,
                                     gamma_phn=1e7)
        channels = build_jump_channels(params, table_space())
        assert len(channels) == 3
        assert all(ch.kind == "dissipation" for ch in channels)

    def test_no_rates_no_channels(self):
        assert build_jump_channels(PARAMS, table_space()) == []

    def test_single_phonon_channel(self):
        params = dataclasses.replace(PARAMS, gamma_phn=0.5e7)
        channels = build_jump_channels(params, table_space())
        assert len(channels) == 1
        ch = channels[0]
        assert ch.rate == 0.5e7 and ch.mode_label == "phn"
        expected = ladder("phn", "lower", ch.op.space)
        assert np.array_equal(ch.op.mat, expected.mat)

    def test_influx_channel_uses_raising_op(self):
        params = dataclasses.replace(PARAMS, influx_up=1e6)
        channels = build_jump_channels(params, FULL)
        assert [ch.kind for ch in channels] == ["influx"]
        expected = ladder("pht_up", "raise", FULL)
        assert np.array_equal(channels[0].op.mat, expected.mat)


class TestModelParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(g_bond=-1.0)

    @pytest.mark.parametrize("name", ["g_up", "g_bond", "zeta",
                                      "gamma_phn", "influx_up", "influx_phn"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    def test_max_scale(self):
        params = ModelParams(g_up=3e8, gamma_phn=9e8)
        assert params.max_scale() == 9e8
