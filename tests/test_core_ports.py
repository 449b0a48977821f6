"""Tests for deterministic port placement."""


from repro.core.ports import assign_port_positions
from repro.geometry.rect import Rect
from repro.netlist.flatten import TopInterface


class TestPortPositions:
    def test_on_boundary(self, two_stage_design):
        die = Rect(0, 0, 100, 60)
        positions = assign_port_positions(TopInterface.of(two_stage_design),
                                          die)
        assert set(positions) == {"pin", "pout"}
        for pos in positions.values():
            on_x = pos.x in (die.x, die.x2)
            on_y = pos.y in (die.y, die.y2)
            assert on_x or on_y

    def test_inputs_west_outputs_east(self, two_stage_design):
        die = Rect(0, 0, 100, 60)
        positions = assign_port_positions(TopInterface.of(two_stage_design),
                                          die)
        assert positions["pin"].x < positions["pout"].x

    def test_deterministic(self, two_stage_design):
        die = Rect(0, 0, 100, 60)
        a = assign_port_positions(TopInterface.of(two_stage_design), die)
        b = assign_port_positions(TopInterface.of(two_stage_design), die)
        assert a == b

    def test_many_ports_spread(self, tiny_c1):
        design, _truth, w, h = tiny_c1
        positions = assign_port_positions(TopInterface.of(design),
                                          Rect(0, 0, w, h))
        assert len(positions) == len(design.top.ports)
        assert len({(p.x, p.y) for p in positions.values()}) \
            == len(positions)
