"""Tests for array-name clustering."""

from repro.hiergraph.arrays import array_base


class TestArrayBase:
    def test_bracket_pattern(self):
        assert array_base("data_reg[7]") == ("data_reg", 7)

    def test_suffix_pattern(self):
        assert array_base("data_reg_7") == ("data_reg", 7)

    def test_plain_name(self):
        assert array_base("ctrl") == ("ctrl", 0)

    def test_bracket_takes_precedence(self):
        assert array_base("bank_2[3]") == ("bank_2", 3)

    def test_nested_indices(self):
        base, index = array_base("r[1][2]")
        assert index == 2
        assert base == "r[1]"
