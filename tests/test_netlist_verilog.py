"""Tests for the structural Verilog writer/parser."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.cells import DEFAULT_COMB, DEFAULT_FLOP
from repro.netlist.flatten import flatten
from repro.netlist.stats import design_stats
from repro.netlist.verilog import (
    VerilogSyntaxError,
    design_to_verilog,
    parse_verilog,
)

from tests.conftest import build_two_stage_design

LIB = {"DFF": DEFAULT_FLOP, "COMB2": DEFAULT_COMB}


class TestWriter:
    def test_writes_all_modules(self, two_stage_design):
        text = design_to_verilog(two_stage_design)
        assert text.count("module ") == 3
        assert text.strip().endswith("endmodule")
        # Top module comes last by convention.
        assert text.rfind("module top") > text.rfind("module stage_a")

    def test_escaped_identifiers(self, two_stage_design):
        text = design_to_verilog(two_stage_design)
        assert "\\in_reg[0] " in text


class TestRoundTrip:
    def test_two_stage_roundtrip(self, two_stage_design):
        from tests.conftest import make_ram
        text = design_to_verilog(two_stage_design)
        lib = dict(LIB)
        lib["RAM8"] = make_ram()
        parsed = parse_verilog(text, lib, "rt")
        orig = design_stats(two_stage_design)
        new = design_stats(parsed)
        assert new.cells == orig.cells
        assert new.macros == orig.macros
        # Flat connectivity is preserved bit for bit.
        assert len(flatten(parsed).nets) \
            == len(flatten(two_stage_design).nets)

    def test_suite_design_roundtrip(self, tiny_c1):
        design, _truth, _w, _h = tiny_c1
        text = design_to_verilog(design)
        lib = design.cell_types()
        parsed = parse_verilog(text, lib, "rt")
        assert design_stats(parsed).cells == design_stats(design).cells
        assert len(flatten(parsed).nets) == len(flatten(design).nets)


class TestParserErrors:
    def test_unknown_reference(self):
        text = "module m (input a);\n  GHOST g (.p(a));\nendmodule"
        with pytest.raises(VerilogSyntaxError, match="unknown reference"):
            parse_verilog(text, LIB)

    def test_undeclared_net(self):
        text = "module m (input a);\n  DFF f (.d(zz));\nendmodule"
        with pytest.raises(VerilogSyntaxError, match="undeclared net"):
            parse_verilog(text, LIB)

    def test_garbage_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("assign x = y;", LIB)

    def test_empty_input(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("   // just a comment\n", LIB)

    def test_nonzero_lsb_rejected(self):
        text = "module m (input [7:4] a);\nendmodule"
        with pytest.raises(VerilogSyntaxError, match="msb:0"):
            parse_verilog(text, LIB)

    def test_unknown_pin(self):
        text = "module m (input a);\n  DFF f (.nope(a));\nendmodule"
        with pytest.raises(VerilogSyntaxError,
                           match="module m: .*'f'.* no pin 'nope'"):
            parse_verilog(text, LIB)

    def test_unknown_top(self):
        text = "module m (input a);\nendmodule"
        with pytest.raises(VerilogSyntaxError,
                           match="unknown top module 'ghost'"):
            parse_verilog(text, LIB, top="ghost")

    def test_self_instantiation(self):
        text = "module m (input a);\n  m inner (.a(a));\nendmodule"
        with pytest.raises(VerilogSyntaxError,
                           match="instantiation cycle: m -> m"):
            parse_verilog(text, LIB)

    def test_longer_instantiation_cycle(self):
        text = ("module a (input x);\n  b ib (.y(x));\nendmodule\n"
                "module b (input y);\n  c ic (.z(y));\nendmodule\n"
                "module c (input z);\n  a ia (.x(z));\nendmodule\n"
                "module top (input p);\n  a i0 (.x(p));\nendmodule")
        with pytest.raises(VerilogSyntaxError,
                           match="instantiation cycle: a -> b -> c -> a"):
            parse_verilog(text, LIB)

    def test_slice_out_of_range(self):
        text = ("module m (input [1:0] a);\n"
                "  DFF f (.d(a[2]));\nendmodule")
        with pytest.raises(VerilogSyntaxError, match="out of range"):
            parse_verilog(text, LIB)

    def test_reversed_part_select(self):
        text = ("module m (input [3:0] a, output z);\n"
                "  COMB2 g (.a0(a[0:1]), .a1(a), .z(z));\nendmodule")
        with pytest.raises(VerilogSyntaxError, match="msb >= lsb"):
            parse_verilog(text, LIB)

    def test_truncated_instance(self):
        with pytest.raises(VerilogSyntaxError, match="end of input"):
            parse_verilog("module m (input a);\n  DFF f (.d(", LIB)


class TestParserFeatures:
    def test_bit_and_part_selects(self):
        text = (
            "module m (input [7:0] a, output z);\n"
            "  wire [3:0] w;\n"
            "  COMB2 g0 (.a0(a[3]), .a1(w[1]), .z(z));\n"
            "  COMB2 g1 (.a0(a[7]), .a1(a[0]), .z(w[1]));\n"
            "endmodule")
        design = parse_verilog(text, LIB)
        flat = flatten(design)
        assert len(flat.cells) == 2

    def test_comments_and_whitespace(self):
        text = (
            "// header\n"
            "module m (input a, output z); /* inline */\n"
            "  COMB2 g (.a0(a), .a1(a), .z(z)); // tail\n"
            "endmodule\n")
        design = parse_verilog(text, LIB)
        assert len(list(design.top.leaf_instances())) == 1

    def test_unconnected_pin(self):
        text = ("module m (input a, output z);\n"
                "  COMB2 g (.a0(a), .a1(), .z(z));\n"
                "endmodule")
        design = parse_verilog(text, LIB)
        assert len(flatten(design).cells) == 1

    def test_explicit_top_selection(self):
        text = ("module a (input x);\nendmodule\n"
                "module b (input y);\nendmodule")
        design = parse_verilog(text, LIB, top="a")
        assert design.top.name == "a"


#: The writer's tokens: escaped names, identifiers, numbers, punctuation
#: (comments are dropped).
_TOKEN = re.compile(r"//[^\n]*|\\\S+|[A-Za-z_][A-Za-z0-9_$]*|\d+|[().,;:\[\]]")
_FUZZ_DESIGN = build_two_stage_design(width=2)
_FUZZ_LIBRARY = _FUZZ_DESIGN.cell_types()
_FUZZ_TOKENS = [t for t in _TOKEN.findall(design_to_verilog(_FUZZ_DESIGN))
                if not t.startswith("//")]
_MUTATION = st.tuples(st.sampled_from(("drop", "duplicate", "swap")),
                      st.integers(0, len(_FUZZ_TOKENS) - 1),
                      st.integers(0, len(_FUZZ_TOKENS) - 1))


class TestFuzz:
    def test_unmutated_tokens_parse(self):
        design = parse_verilog(" ".join(_FUZZ_TOKENS), _FUZZ_LIBRARY)
        assert design_stats(design).cells == design_stats(_FUZZ_DESIGN).cells

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(_MUTATION, min_size=1, max_size=3))
    def test_mutated_text_parses_or_raises_syntax_error(self, mutations):
        """Dropped, duplicated or swapped tokens yield a design or a
        :class:`VerilogSyntaxError`, never another exception."""
        tokens = list(_FUZZ_TOKENS)
        for op, i, j in mutations:
            i %= len(tokens)
            j %= len(tokens)
            if op == "drop":
                del tokens[i]
            elif op == "duplicate":
                tokens.insert(j, tokens[i])
            else:
                tokens[i], tokens[j] = tokens[j], tokens[i]
        try:
            parse_verilog(" ".join(tokens), _FUZZ_LIBRARY)
        except VerilogSyntaxError:
            pass
