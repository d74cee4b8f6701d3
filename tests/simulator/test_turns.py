"""Turn-string algebra tests."""

import pytest

from repro.simulator.turns import reverse_turns, turn_alphabet, validate_turns
from tests.simulator.reference_service import switch_probe_turns


class TestValidate:
    def test_valid_string(self):
        assert validate_turns([1, -3, 7], limit=7) == (1, -3, 7)

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValueError, match="turn 0"):
            validate_turns([1, 0, 2], limit=7)

    def test_zero_allowed_when_asked(self):
        assert validate_turns([1, 0, -1], allow_zero=True, limit=7) == (1, 0, -1)

    @pytest.mark.parametrize("bad", [8, -8, 100])
    def test_out_of_alphabet(self, bad):
        with pytest.raises(ValueError, match="alphabet"):
            validate_turns([bad], limit=7)

    def test_limit_is_the_alphabet_radius(self):
        assert validate_turns((9, -9), limit=9) == (9, -9)
        with pytest.raises(ValueError, match=r"turn 8 outside alphabet \[-7, 7\]"):
            validate_turns((8,), limit=7)

    def test_empty_ok(self):
        assert validate_turns([], limit=7) == ()

    def test_canonical_tuple_comes_back_as_the_same_object(self):
        turns = (1, -3, 7)
        assert validate_turns(turns, limit=7) is turns

    def test_non_int_elements_are_normalised_then_checked(self):
        out = validate_turns((2, True, 3.0), limit=7)
        assert out == (2, 1, 3)
        assert [type(t) for t in out] == [int, int, int]
        with pytest.raises(ValueError, match="turn 0"):
            validate_turns((1, False), limit=7)
        with pytest.raises(ValueError, match="alphabet"):
            validate_turns((1, 8.0), limit=7)


class TestAlgebra:
    def test_reverse(self):
        assert reverse_turns((1, -3, 2)) == (-2, 3, -1)

    def test_reverse_involution(self):
        t = (5, -2, 1, 1)
        assert reverse_turns(reverse_turns(t)) == t

    def test_switch_probe_shape(self):
        # a1...ak 0 -ak...-a1 (Section 2.3)
        assert switch_probe_turns((2, -1)) == (2, -1, 0, 1, -2)

    def test_switch_probe_single_turn(self):
        assert switch_probe_turns((3,)) == (3, 0, -3)


class TestAlphabet:
    def test_ascending_without_zero(self):
        # Ascending: coupon's weighted draws index into this order.
        assert turn_alphabet(4) == (-3, -2, -1, 1, 2, 3)
        assert turn_alphabet(8) == tuple(t for t in range(-7, 8) if t)

    def test_every_turn_passes_validation_at_its_radix(self):
        for radix in (2, 8, 10, 16):
            alphabet = turn_alphabet(radix)
            assert validate_turns(alphabet, limit=radix - 1) is alphabet
