"""Tests for the hierarchical netlist data model."""

import pytest

from repro.netlist.cells import DEFAULT_FLOP, Direction
from repro.netlist.core import Design, Module, Net


class TestNet:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            Net("n", 0)

    def test_connect_slice_bounds(self):
        net = Net("n", 8)
        net.connect("i", "p", width=4, net_lsb=4)
        with pytest.raises(ValueError):
            net.connect("i", "p", width=4, net_lsb=5)


class TestModule:
    def test_port_creates_net(self):
        m = Module("m")
        m.add_port("din", Direction.IN, 8)
        assert "din" in m.nets
        assert m.nets["din"].width == 8

    def test_duplicate_port_rejected(self):
        m = Module("m")
        m.add_port("p", Direction.IN)
        with pytest.raises(ValueError):
            m.add_port("p", Direction.OUT)

    def test_net_redeclaration(self):
        m = Module("m")
        m.add_net("w", 4)
        assert m.add_net("w", 4) is m.nets["w"]
        with pytest.raises(ValueError):
            m.add_net("w", 8)

    def test_duplicate_instance_rejected(self):
        m = Module("m")
        m.add_instance("i", DEFAULT_FLOP)
        with pytest.raises(ValueError):
            m.add_instance("i", DEFAULT_FLOP)

    def test_leaf_and_module_instances(self):
        inner = Module("inner")
        outer = Module("outer")
        outer.add_instance("leaf", DEFAULT_FLOP)
        outer.add_instance("sub", inner)
        assert [i.name for i in outer.leaf_instances()] == ["leaf"]
        assert [i.name for i in outer.module_instances()] == ["sub"]
        assert outer.instances["sub"].ref_name == "inner"

    def test_port_lookup_error(self):
        m = Module("m")
        with pytest.raises(KeyError):
            m.port("nope")


class TestDesign:
    def test_top_management(self):
        d = Design("d")
        m = Module("m")
        d.add_module(m)
        with pytest.raises(ValueError):
            _ = d.top
        d.set_top("m")
        assert d.top is m

    def test_unknown_top_rejected(self):
        d = Design("d")
        with pytest.raises(KeyError):
            d.set_top("ghost")

    def test_duplicate_module_rejected(self):
        d = Design("d")
        d.add_module(Module("m"))
        with pytest.raises(ValueError):
            d.add_module(Module("m"))

    def test_cell_types_collects_leaves(self):
        d = Design("d")
        m = Module("m")
        m.add_instance("f", DEFAULT_FLOP)
        d.add_module(m)
        d.set_top("m")
        assert set(d.cell_types()) == {"DFF"}
