"""Tests for design validation."""

import pytest

from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import DEFAULT_COMB, DEFAULT_FLOP
from repro.netlist.validate import assert_valid, validate_design

from tests.conftest import single_module_design


def errors(design):
    return [i for i in validate_design(design) if i.severity == "error"]


def warnings(design):
    return [i for i in validate_design(design) if i.severity == "warning"]


class TestValidate:
    def test_clean_design(self, two_stage_design):
        assert not errors(two_stage_design)
        assert_valid(two_stage_design)

    def test_suite_design_clean(self, tiny_c1):
        design, _truth, _w, _h = tiny_c1
        assert not errors(design)

    def test_multiple_drivers_detected(self):
        b = ModuleBuilder("m")
        b.input("a", 1).output("z", 1)
        g0 = b.instance(DEFAULT_COMB, "g0")
        g1 = b.instance(DEFAULT_COMB, "g1")
        b.connect("a", g0, "a0").connect("a", g0, "a1")
        b.connect("a", g1, "a0").connect("a", g1, "a1")
        b.connect("z", g0, "z")
        b.connect("z", g1, "z")          # second driver on z
        issues = errors(single_module_design(b))
        assert any("drivers" in i.message for i in issues)

    def test_undriven_loads_warn(self):
        b = ModuleBuilder("m")
        b.output("z", 1)
        b.wire("w", 1)
        g0 = b.instance(DEFAULT_COMB, "g0")
        b.connect("w", g0, "a0")
        b.connect("w", g0, "a1")         # two loads, no driver
        b.connect("z", g0, "z")
        issues = warnings(single_module_design(b))
        assert any("no driver" in i.message for i in issues)

    def test_pin_slice_overflow(self):
        b = ModuleBuilder("m")
        b.input("a", 8)
        f = b.instance(DEFAULT_FLOP, "f")
        b.connect("a", f, "d", width=2)   # d is 1 bit wide
        issues = errors(single_module_design(b))
        assert any("exceeds" in i.message for i in issues)

    def test_assert_valid_raises(self):
        b = ModuleBuilder("m")
        b.input("a", 8)
        f = b.instance(DEFAULT_FLOP, "f")
        b.connect("a", f, "d", width=2)
        with pytest.raises(ValueError, match="failed validation"):
            assert_valid(single_module_design(b))

    def test_issue_formatting(self):
        from repro.netlist.validate import ValidationIssue
        issue = ValidationIssue("error", "m.net", "boom")
        assert str(issue) == "[error] m.net: boom"
