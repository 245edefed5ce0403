import pytest
from hypothesis import given, strategies as st

from h2discord.errors import EmptySeeds, SeedOutsideCompatTable
from h2discord.operators import ModelParams
from h2discord.statespace import BasisState, GatingPolicy, INITIAL_COMPONENTS, \
    TABLE_STATES, generate_space, table_space

from oracles import decode, encode, full_space

PARAMS = ModelParams()

# transcribed reduced-basis listing, index and bitstring
TABLE_LISTING = {
    0: "0000000", 1: "0100000", 2: "1000000", 3: "1100000", 4: "0000010",
    5: "0000011", 6: "0000100", 7: "1000100", 8: "0000110", 9: "0000111",
    10: "0001000", 11: "0101000", 12: "0001010", 13: "0001011",
    14: "0001100", 15: "0001110", 16: "0001111", 17: "0010000",
    18: "0110000", 19: "1010000", 20: "1110000", 21: "0010100",
    22: "1010100", 23: "0011000", 24: "0111000", 25: "0011100",
}


def state(bits):
    return BasisState.from_string(bits)



class TestEncoding:
    def test_all_zero(self):
        assert encode(state("0000000")) == 0

    def test_broken_bond_state(self):
        assert encode(state("0000010")) == 2

    def test_positional_weights(self):
        assert encode(state("1110000")) == 112

    def test_decode_inverse_examples(self):
        assert decode(2) == state("0000010")
        assert decode(127) == state("1111111")

    @given(st.integers(min_value=0, max_value=127))
    def test_roundtrip(self, code):
        assert encode(decode(code)) == code

    def test_roundtrip_state_side(self):
        for code in range(128):
            s = decode(code)
            assert decode(encode(s)) == s

    def test_decode_range(self):
        with pytest.raises(ValueError):
            decode(128)


class TestMatterLabels:
    def test_photon_state(self):
        assert state("0100000").b_label() == (0, 0, 0, 0, 0)

    def test_mixed_state(self):
        assert state("1010100").b_label() == (1, 0, 1, 0, 0)

    def test_lossless(self):
        for code in range(128):
            s = decode(code)
            assert BasisState(s.p1, s.p2, *s.b_label()) == s


class TestFullSpace:
    def test_size(self):
        assert full_space().size == 128

    def test_first_element(self):
        assert full_space().states[0] == state("0000000")

    def test_last_index(self):
        assert full_space().states.index(state("1111111")) == 127

    def test_canonical_order(self):
        sp = full_space()
        codes = [encode(s) for s in sp]
        assert codes == sorted(codes)


class TestTableStates:
    def test_against_listing(self):
        assert {state(b) for b in TABLE_LISTING.values()} == set(TABLE_STATES)

    def test_size(self):
        assert len(TABLE_STATES) == 26
        assert table_space().size == 26


class TestGenerateSpace:
    def test_table_compat_reproduces_reference_set(self):
        sp = generate_space(INITIAL_COMPONENTS, PARAMS,
                            include_dissipation=True, mode="table-compat")
        assert set(sp.states) == set(TABLE_STATES)
        assert sp.size == 26

    def test_closure_is_strict_superset(self):
        sp = generate_space(INITIAL_COMPONENTS, PARAMS,
                            include_dissipation=True, mode="closure")
        assert set(sp.states) > set(TABLE_STATES)

    def test_no_dissipation_compat_is_17_states(self):
        sp = generate_space(INITIAL_COMPONENTS, PARAMS,
                            include_dissipation=False, mode="table-compat")
        expected = {TABLE_LISTING[i] for i in
                    (4, 5, 8, 9, 12, 13, 15, 16, 17, 18, 19, 20,
                     21, 22, 23, 24, 25)}
        assert {s.to_string() for s in sp} == expected

    def test_all_relaxed_state_is_fixed_point(self):
        sp = generate_space([state("0000000")], PARAMS,
                            include_dissipation=True)
        assert list(sp) == [state("0000000")]

    def test_empty_seeds(self):
        with pytest.raises(EmptySeeds):
            generate_space([], PARAMS)

    def test_seed_outside_compat_table(self):
        with pytest.raises(SeedOutsideCompatTable):
            generate_space([state("0000001")], PARAMS, mode="table-compat")

    def test_seed_order_irrelevant(self):
        forward = generate_space(INITIAL_COMPONENTS, PARAMS,
                                 mode="table-compat")
        backward = generate_space(tuple(reversed(INITIAL_COMPONENTS)), PARAMS,
                                  mode="table-compat")
        assert forward.states == backward.states

    def test_idempotent(self):
        sp = generate_space(INITIAL_COMPONENTS, PARAMS, mode="closure")
        again = generate_space(sp.states, PARAMS, mode="closure")
        assert again.states == sp.states

    @given(st.lists(st.integers(min_value=0, max_value=127), min_size=1,
                    max_size=6),
           st.lists(st.integers(min_value=0, max_value=127), min_size=0,
                    max_size=4))
    def test_monotone_in_seeds(self, first, extra):
        seeds1 = [decode(c) for c in first]
        seeds2 = seeds1 + [decode(c) for c in extra]
        small = set(generate_space(seeds1, PARAMS, mode="closure"))
        large = set(generate_space(seeds2, PARAMS, mode="closure"))
        assert small <= large

    def test_zeta_zero_disables_tunneling_moves(self):
        import dataclasses
        params = dataclasses.replace(PARAMS, zeta=0.0)
        sp = generate_space([state("0000010")], params,
                            include_dissipation=False)
        assert state("0000011") not in sp

    def test_literal_tunneling_form_has_no_moves(self):
        gating = GatingPolicy(literal_tunneling_form=True)
        sp = generate_space([state("0000010")], PARAMS, gating,
                            include_dissipation=False)
        assert state("0000011") not in sp


class TestDump:
    def test_format(self):
        lines = table_space().dump_lines()
        assert len(lines) == 26
        assert lines[0] == "0\t0000000"
        index, bits = lines[1].split("\t")
        assert int(index) == 1 and bits == "0000010"
