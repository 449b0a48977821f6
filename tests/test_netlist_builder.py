"""Tests for the module builder API."""

import pytest

from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import DEFAULT_COMB, Direction
from repro.netlist.flatten import flatten

from tests.conftest import single_module_design


class TestBuilderBasics:
    def test_ports_and_wires(self):
        b = ModuleBuilder("m")
        b.input("a", 4).output("z", 4)
        b.wire("w", 4)
        module = b.build()
        assert module.ports["a"].direction is Direction.IN
        assert module.nets["w"].width == 4

    def test_connect_requires_declared_net(self):
        b = ModuleBuilder("m")
        inst = b.instance(DEFAULT_COMB)
        with pytest.raises(KeyError):
            b.connect("ghost", inst, "a0")

    def test_instance_auto_names_unique(self):
        b = ModuleBuilder("m")
        i1 = b.instance(DEFAULT_COMB)
        i2 = b.instance(DEFAULT_COMB)
        assert i1.name != i2.name


class TestRegisterArray:
    def test_flop_naming_pattern(self):
        b = ModuleBuilder("m")
        b.input("d", 4).output("q", 4)
        flops = b.register_array("r", 4, d="d", q="q")
        assert [f.name for f in flops] == ["r[0]", "r[1]", "r[2]", "r[3]"]

    def test_width_check(self):
        b = ModuleBuilder("m")
        b.input("d", 2).output("q", 4)
        with pytest.raises(ValueError):
            b.register_array("r", 4, d="d", q="q")

    def test_bit_connectivity(self):
        b = ModuleBuilder("m")
        b.input("d", 2).output("q", 2)
        b.register_array("r", 2, d="d", q="q")
        flat = flatten(single_module_design(b))
        # d[i] -> r[i].d and r[i].q -> q[i]: 4 bit nets with 1 cell each.
        assert len(flat.nets) == 4


class TestCombClouds:
    def test_cloud_drives_every_output_bit(self):
        b = ModuleBuilder("m")
        b.input("a", 4).output("z", 4)
        cells = b.comb_cloud("mix", ["a"], "z")
        assert len(cells) == 4
        design = single_module_design(b)
        flat = flatten(design)
        # Every z bit must have a driver.
        driven_bits = set()
        for net in flat.nets:
            for port, bit in net.top_ports:
                if port == "z":
                    driven_bits.add(bit)
        assert driven_bits == {0, 1, 2, 3}

    def test_cloud_extra_cells(self):
        b = ModuleBuilder("m")
        b.input("a", 4).output("z", 4)
        cells = b.comb_cloud("mix", ["a"], "z", n_cells=10)
        assert len(cells) == 10

    def test_cloud_needs_inputs(self):
        b = ModuleBuilder("m")
        b.output("z", 2)
        with pytest.raises(ValueError):
            b.comb_cloud("mix", [], "z")

    def test_comb_slice(self):
        b = ModuleBuilder("m")
        b.input("a", 2).output("z", 8)
        b.comb_slice("g", "a", "z", dst_lsb=4, width=2)
        design = single_module_design(b)
        flat = flatten(design)
        driven = set()
        for net in flat.nets:
            for port, bit in net.top_ports:
                if port == "z":
                    driven.add(bit)
        assert driven == {4, 5}

    def test_comb_slice_bounds(self):
        b = ModuleBuilder("m")
        b.input("a", 2).output("z", 4)
        with pytest.raises(ValueError):
            b.comb_slice("g", "a", "z", dst_lsb=3, width=2)
