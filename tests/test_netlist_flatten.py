"""Tests for bit-accurate flattening."""

import pytest

from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import DEFAULT_COMB
from repro.netlist.core import Design
from repro.netlist.flatten import flatten, net_driver

from tests.conftest import single_module_design


class TestFlattenBasics:
    def test_counts(self, two_stage_flat):
        assert len(two_stage_flat.cells) == 34      # 2*(16 flops + 1 macro)
        assert len(two_stage_flat.macros()) == 2
        assert len(two_stage_flat.flops()) == 32

    def test_paths_unique_and_hierarchical(self, two_stage_flat):
        paths = [c.path for c in two_stage_flat.cells]
        assert len(set(paths)) == len(paths)
        assert "sa/mem" in paths
        assert "sb/in_reg[0]" in paths

    def test_module_path(self, two_stage_flat):
        mem = two_stage_flat.cell_by_path("sa/mem")
        assert mem.module_path == "sa"
        assert mem.local_name == "mem"

    def test_areas(self, two_stage_flat):
        assert two_stage_flat.macro_area() == pytest.approx(2 * 24.0)
        assert two_stage_flat.stdcell_area() == pytest.approx(32 * 1.0)

    def test_cross_boundary_nets_union(self, two_stage_flat):
        """Nets driven by sa.out_reg.q reach sb.in_reg.d through the
        top-level 'mid' bus (two hierarchy crossings)."""
        crossing = 0
        for net in two_stage_flat.nets:
            drives = any(
                two_stage_flat.cells[i].path.startswith("sa/out_reg")
                and pin == "q"
                for i, pin, _b in net.endpoints)
            if drives:
                crossing += 1
                assert any(
                    two_stage_flat.cells[i].path.startswith("sb/in_reg")
                    for i, _p, _b in net.endpoints)
        assert crossing == 8        # one net per mid bus bit

    def test_net_drivers(self, two_stage_flat):
        for net in two_stage_flat.nets:
            driver = net_driver(two_stage_flat, net)
            if driver is None:
                # Must be a port-driven net then.
                assert net.top_ports


class TestFlattenEdgeCases:
    def test_dangling_single_endpoint_dropped(self):
        b = ModuleBuilder("m")
        b.input("a", 1).output("z", 1)
        inst = b.instance(DEFAULT_COMB, "g")
        b.connect("a", inst, "a0")
        b.connect("z", inst, "z")
        b.wire("dead", 1)
        b.connect("dead", inst, "a1")       # only one endpoint
        flat = flatten(single_module_design(b))
        names = [n.name for n in flat.nets]
        assert not any("dead" in n for n in names)

    def test_deep_hierarchy(self):
        leaf_b = ModuleBuilder("leaf")
        leaf_b.input("i", 1).output("o", 1)
        leaf_b.register_array("r", 1, d="i", q="o")
        leaf = leaf_b.build()

        mid_b = ModuleBuilder("mid")
        mid_b.input("i", 1).output("o", 1)
        inst = mid_b.instance(leaf, "l")
        mid_b.connect("i", inst, "i")
        mid_b.connect("o", inst, "o")
        mid = mid_b.build()

        top_b = ModuleBuilder("top")
        top_b.input("i", 1).output("o", 1)
        inst = top_b.instance(mid, "m")
        top_b.connect("i", inst, "i")
        top_b.connect("o", inst, "o")

        design = Design("deep")
        design.add_module(leaf)
        design.add_module(mid)
        design.add_module(top_b.build())
        design.set_top("top")
        flat = flatten(design)
        assert flat.cells[0].path == "m/l/r[0]"
        assert flat.cells[0].module_path == "m/l"
        # Two nets: i -> flop.d and flop.q -> o, each crossing 2 levels.
        assert len(flat.nets) == 2
        for net in flat.nets:
            assert net.top_ports, "port should alias through both levels"

    def test_shared_module_definition(self):
        """One module instantiated twice yields distinct cells."""
        stage_b = ModuleBuilder("s")
        stage_b.input("i", 1).output("o", 1)
        stage_b.register_array("r", 1, d="i", q="o")
        stage = stage_b.build()
        top_b = ModuleBuilder("top")
        top_b.input("i", 1).output("o", 1)
        top_b.wire("w", 1)
        a = top_b.instance(stage, "a")
        bb = top_b.instance(stage, "b")
        top_b.connect("i", a, "i")
        top_b.connect("w", a, "o")
        top_b.connect("w", bb, "i")
        top_b.connect("o", bb, "o")
        design = Design("twice")
        design.add_module(stage)
        design.add_module(top_b.build())
        design.set_top("top")
        flat = flatten(design)
        assert {c.path for c in flat.cells} == {"a/r[0]", "b/r[0]"}
