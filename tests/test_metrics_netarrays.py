"""Tests for the referee's array-compiled netlist (NetArrays)."""

import numpy as np
import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Rect
from repro.metrics import compile_net_arrays, net_arrays_for
from repro.metrics.netarrays import (
    KIND_MACRO,
    KIND_PORT,
    KIND_STD,
    locate_endpoints,
)
from repro.netlist.flatten import FlatNet
from repro.placement.stdcell import place_cells


def _place_macros(flat, die, orientation=Orientation.N):
    placement = MacroPlacement(design_name=flat.top.name,
                               flow_name="test", die=die)
    for k, cell in enumerate(flat.macros()):
        placement.macros[cell.index] = PlacedMacro(
            cell.index, cell.path,
            Rect(4.0 + 11.0 * k, 5.0 + 2.5 * k, 6.0, 4.0),
            orientation=orientation)
    return placement


class TestCompile:
    def test_csr_structure_matches_nets(self, two_stage_flat):
        arrays = compile_net_arrays(two_stage_flat)
        assert arrays.n_nets == len(two_stage_flat.nets)
        assert arrays.net_offsets[0] == 0
        assert arrays.net_offsets[-1] == arrays.n_rows
        for net in two_stage_flat.nets:
            lo = arrays.net_offsets[net.index]
            hi = arrays.net_offsets[net.index + 1]
            assert hi - lo == len(net.endpoints) + len(net.top_ports)
            assert (arrays.net_of_row[lo:hi] == net.index).all()

    def test_row_kinds(self, two_stage_flat):
        arrays = compile_net_arrays(two_stage_flat)
        n_macro_rows = n_std_rows = n_port_rows = 0
        for net in two_stage_flat.nets:
            for cell_index, _pin, _bit in net.endpoints:
                if two_stage_flat.cells[cell_index].is_macro:
                    n_macro_rows += 1
                else:
                    n_std_rows += 1
            n_port_rows += len(net.top_ports)
        assert int((arrays.kind == KIND_MACRO).sum()) == n_macro_rows
        assert int((arrays.kind == KIND_STD).sum()) == n_std_rows
        assert int((arrays.kind == KIND_PORT).sum()) == n_port_rows

    def test_macro_slots_cover_connected_macros(self, two_stage_flat):
        arrays = compile_net_arrays(two_stage_flat)
        macro_cells = {c.index for c in two_stage_flat.macros()}
        assert set(arrays.macro_cells.tolist()) <= macro_cells
        # Slot footprints are the as-drawn cell dimensions.
        for slot, cell_index in enumerate(arrays.macro_cells.tolist()):
            ctype = two_stage_flat.cells[cell_index].ctype
            assert arrays.macro_w[slot] == ctype.width
            assert arrays.macro_h[slot] == ctype.height


class TestCaching:
    def test_cached_on_flat(self, two_stage_flat):
        first = net_arrays_for(two_stage_flat)
        assert net_arrays_for(two_stage_flat) is first

    def test_cache_invalidated_by_net_count(self, two_stage_design):
        from repro.netlist.flatten import flatten

        flat = flatten(two_stage_design)
        first = net_arrays_for(flat)
        flat.nets.append(FlatNet(len(flat.nets), "extra",
                                 endpoints=[(0, "d", 0), (1, "d", 0)]))
        second = net_arrays_for(flat)
        assert second is not first
        assert second.n_nets == first.n_nets + 1

    def test_prepared_design_shares_compile(self, two_stage_flat):
        from repro.api.prepared import PreparedDesign

        prepared = PreparedDesign.from_flat(two_stage_flat, 40.0, 40.0)
        assert prepared.net_arrays is net_arrays_for(two_stage_flat)


class TestLocate:
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_macro_pins_match_reference(self, two_stage_flat,
                                        orientation):
        die = Rect(0, 0, 40, 40)
        placement = _place_macros(two_stage_flat, die, orientation)
        ports = assign_port_positions(two_stage_flat.top, die)
        cells = place_cells(two_stage_flat, placement, ports)
        arrays = net_arrays_for(two_stage_flat)
        x, y, located, macro_located = locate_endpoints(
            arrays, placement, cells, ports)

        row = 0
        for net in two_stage_flat.nets:
            for cell_index, pin, bit in net.endpoints:
                cell = two_stage_flat.cells[cell_index]
                if cell.is_macro:
                    ref = placement.macros[cell_index].pin_position(
                        two_stage_flat, pin, bit)
                    assert located[row] and macro_located[row]
                    assert x[row] == ref.x and y[row] == ref.y
                else:
                    ref = cells.cell_pos(cell_index)
                    assert located[row] == (ref is not None)
                    if ref is not None:
                        assert x[row] == ref.x and y[row] == ref.y
                    assert not macro_located[row]
                row += 1
            for port_name, _bit in net.top_ports:
                ref = ports[port_name]
                assert located[row]
                assert x[row] == ref.x and y[row] == ref.y
                row += 1
        assert row == arrays.n_rows

    def test_unplaced_macro_and_unknown_port_unlocated(self,
                                                       two_stage_flat):
        die = Rect(0, 0, 40, 40)
        placement = _place_macros(two_stage_flat, die)
        dropped = next(iter(placement.macros))
        del placement.macros[dropped]
        ports = assign_port_positions(two_stage_flat.top, die)
        cells = place_cells(two_stage_flat, placement, ports)
        missing_port = next(iter(ports))
        ports = {k: v for k, v in ports.items() if k != missing_port}

        arrays = net_arrays_for(two_stage_flat)
        x, y, located, macro_located = locate_endpoints(
            arrays, placement, cells, ports)
        row = 0
        for net in two_stage_flat.nets:
            for cell_index, _pin, _bit in net.endpoints:
                if cell_index == dropped:
                    assert not located[row]
                    assert not macro_located[row]
                row += 1
            for port_name, _bit in net.top_ports:
                assert located[row] == (port_name != missing_port)
                row += 1
        assert np.isfinite(x).all() and np.isfinite(y).all()
