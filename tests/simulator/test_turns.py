"""Turn-string algebra tests."""

import pytest

from repro.simulator.turns import (
    reverse_turns,
    switch_probe_turns,
    validate_turns,
)


class TestValidate:
    def test_valid_string(self):
        assert validate_turns([1, -3, 7]) == (1, -3, 7)

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValueError, match="turn 0"):
            validate_turns([1, 0, 2])

    def test_zero_allowed_when_asked(self):
        assert validate_turns([1, 0, -1], allow_zero=True) == (1, 0, -1)

    @pytest.mark.parametrize("bad", [8, -8, 100])
    def test_out_of_alphabet(self, bad):
        with pytest.raises(ValueError, match="alphabet"):
            validate_turns([bad])

    def test_empty_ok(self):
        assert validate_turns([]) == ()

    def test_canonical_tuple_comes_back_as_the_same_object(self):
        turns = (1, -3, 7)
        assert validate_turns(turns) is turns

    def test_non_int_elements_are_normalised_then_checked(self):
        out = validate_turns((2, True, 3.0))
        assert out == (2, 1, 3)
        assert [type(t) for t in out] == [int, int, int]
        with pytest.raises(ValueError, match="turn 0"):
            validate_turns((1, False))
        with pytest.raises(ValueError, match="alphabet"):
            validate_turns((1, 8.0))


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

    def test_switch_probe_validates(self):
        with pytest.raises(ValueError):
            switch_probe_turns((0,))
