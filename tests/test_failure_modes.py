"""Failure injection: malformed inputs must fail loudly and early."""

import pytest

from repro.core import HiDaP, HiDaPConfig
from repro.core.config import Effort
from repro.floorplan.blocks import Block
from repro.geometry.rect import Rect
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design, Module
from repro.netlist.jsonio import DesignFormatError, design_from_json
from repro.shapecurve.curve import ShapeCurve

from tests.conftest import single_module_design


class TestNetlistFailures:
    def test_design_without_top(self):
        design = Design("d")
        design.add_module(Module("m"))
        with pytest.raises(ValueError, match="top module not set"):
            _ = design.top

    def test_truncated_json(self):
        with pytest.raises(DesignFormatError, match="missing key 'library'"):
            design_from_json({"name": "x"})

    def test_json_with_unknown_ref(self):
        data = {
            "name": "x", "top": "m", "library": [],
            "modules": [{
                "name": "m", "ports": [],
                "instances": [["i", "GHOST"]], "nets": []}],
        }
        with pytest.raises(DesignFormatError,
                           match="instance 'i' of module 'm' references "
                                 "unknown cell 'GHOST'"):
            design_from_json(data)

    @pytest.mark.parametrize("port,conns,message", [
        ({"name": "a", "dir": "sideways", "width": 1}, [],
         "'sideways' is not a valid Direction"),
        ({"name": "a", "dir": "input", "width": 1}, [["i", "a", 1]],
         "not enough values to unpack"),
    ], ids=["bad-enum", "short-conns-row"])
    def test_json_with_malformed_value(self, port, conns, message):
        data = {
            "name": "x", "top": "m", "library": [],
            "modules": [{
                "name": "m", "ports": [port], "instances": [],
                "nets": [{"name": "n", "width": 1, "conns": conns}]}],
        }
        with pytest.raises(DesignFormatError,
                           match="malformed design JSON: " + message):
            design_from_json(data)


class TestBlockFailures:
    def test_negative_min_area(self):
        with pytest.raises(ValueError):
            Block(0, "b", ShapeCurve.trivial(), -1.0, 5.0)

    def test_target_below_min_clamped(self):
        block = Block(0, "b", ShapeCurve.trivial(), 10.0, 5.0)
        assert block.area_target == 10.0


class TestPlacerEdgeCases:
    def test_design_without_macros(self):
        """A macro-free design places trivially (nothing to do)."""
        b = ModuleBuilder("m")
        b.input("a", 4)
        b.output("z", 4)
        b.wire("w", 4)
        b.comb_cloud("c", ["a"], "w")
        b.register_array("r", 4, d="w", q="z")
        design = single_module_design(b)
        placement = HiDaP(HiDaPConfig(seed=0, effort=Effort.FAST)).place(
            design, 20.0, 20.0)
        assert placement.macros == {}
        assert placement.die == Rect(0, 0, 20, 20)

    def test_single_macro_design(self):
        from tests.conftest import make_ram, make_stage
        stage = make_stage("solo", 8, make_ram())
        design = Design("solo_design", top=stage)
        placement = HiDaP(HiDaPConfig(seed=0, effort=Effort.FAST)).place(
            design, 30.0, 30.0)
        assert len(placement.macros) == 1
        assert placement.macros_inside_die()

    def test_tight_die_still_places(self):
        """A die barely larger than the macros stays legal."""
        from tests.conftest import build_two_stage_design
        design = build_two_stage_design()
        # Two 6x4 macros = 48 area; cells add 32; die 10x10 = 100.
        placement = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST)).place(
            design, 10.0, 10.0)
        assert len(placement.macros) == 2
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_overfull_die_reports_overlap_not_crash(self):
        """A die smaller than the macro area cannot be legal, but the
        flow must finish and report the violation measurably."""
        from tests.conftest import build_two_stage_design
        design = build_two_stage_design()
        placement = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST)).place(
            design, 7.0, 7.0)      # macros alone need 48 > 49*relaxed
        assert len(placement.macros) == 2
        # Either overlapping or out of die: quantifiable, not hidden.
        illegal = (placement.macro_overlap_area() > 0
                   or not placement.macros_inside_die())
        assert illegal


class TestConfigFailures:
    def test_bad_effort_string(self):
        with pytest.raises(ValueError):
            Effort("turbo")

    def test_layout_config_seeds_differ_by_level(self):
        config = HiDaPConfig(seed=3)
        a = config.layout_config(1).anneal.seed
        b = config.layout_config(2).anneal.seed
        assert a != b
