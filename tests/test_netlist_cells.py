"""Tests for the leaf-cell library."""

import pytest

from repro.netlist.cells import (
    CellKind,
    Direction,
    PinGeometry,
    PortDef,
    Side,
    comb_cell,
    flop_cell,
    macro_cell,
)


class TestPortDef:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            PortDef("p", Direction.IN, 0)


class TestCellTypes:
    def test_flop(self):
        flop = flop_cell()
        assert flop.is_sequential
        assert not flop.is_macro
        assert {p.name for p in flop.ports} == {"d", "q", "clk"}

    def test_comb(self):
        cell = comb_cell(n_inputs=3)
        ins = [p for p in cell.ports if p.direction is Direction.IN]
        assert len(ins) == 3
        assert cell.kind is CellKind.COMB

    def test_macro_requires_dimensions(self):
        with pytest.raises(ValueError):
            macro_cell("M", 0, 5, [PortDef("a", Direction.IN)])

    def test_macro_area(self):
        m = macro_cell("M", 4, 5, [PortDef("a", Direction.IN)])
        assert m.area == 20
        assert m.is_macro

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError):
            macro_cell("M", 2, 2, [PortDef("a", Direction.IN),
                                   PortDef("a", Direction.OUT)])

    def test_port_lookup(self):
        flop = flop_cell()
        assert flop.port("d").direction is Direction.IN
        with pytest.raises(KeyError):
            flop.port("zz")


class TestPinGeometry:
    def side_macro(self, side):
        return macro_cell(
            "M", 10, 6, [PortDef("p", Direction.IN, 4)],
            pin_geometry={"p": PinGeometry(side, 0.5)})

    def test_west(self):
        x, y = self.side_macro(Side.WEST).pin_as_drawn("p", 0)
        assert x == 0.0
        assert 0 <= y <= 6

    def test_east(self):
        x, _y = self.side_macro(Side.EAST).pin_as_drawn("p", 0)
        assert x == 10.0

    def test_south_north(self):
        _x, y = self.side_macro(Side.SOUTH).pin_as_drawn("p", 0)
        assert y == 0.0
        _x, y = self.side_macro(Side.NORTH).pin_as_drawn("p", 0)
        assert y == 6.0

    def test_bits_spread_along_side(self):
        macro = self.side_macro(Side.WEST)
        ys = [macro.pin_as_drawn("p", bit)[1] for bit in range(4)]
        assert ys == sorted(ys)
        assert ys[0] < ys[-1]

    def test_default_geometry(self):
        macro = macro_cell("M", 10, 6, [PortDef("p", Direction.IN)])
        assert macro.pin_as_drawn("p") == (0.0, 3.0)

    def test_non_macro_raises(self):
        with pytest.raises(ValueError):
            flop_cell().pin_as_drawn("d")
