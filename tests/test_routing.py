"""Tests for the routing grid and congestion estimation."""

import numpy as np
import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.rect import Rect
from repro.netlist.flatten import TopInterface
from repro.placement.stdcell import place_cells
from repro.routing.congestion import estimate_congestion
from repro.routing.grid import MACRO_POROSITY, RoutingGrid


class TestGrid:
    def test_uniform_capacity_without_macros(self):
        grid = RoutingGrid.build(Rect(0, 0, 32, 32), [], bins=8)
        assert np.allclose(grid.capacity_h, grid.capacity_h[0, 0])
        assert grid.capacity_total() > 0

    def test_macro_blocks_capacity(self):
        die = Rect(0, 0, 32, 32)
        free = RoutingGrid.build(die, [], bins=8)
        blocked = RoutingGrid.build(die, [Rect(0, 0, 16, 16)], bins=8)
        # Fully covered g-cells keep only the porosity fraction.
        assert blocked.capacity_h[0, 0] \
            == pytest.approx(free.capacity_h[0, 0] * MACRO_POROSITY)
        # Far corner unaffected.
        assert blocked.capacity_h[7, 7] \
            == pytest.approx(free.capacity_h[7, 7])

    def test_l_route_demand_conservation(self):
        grid = RoutingGrid.build(Rect(0, 0, 32, 32), [], bins=8)
        grid.add_l_route(2, 2, 30, 30, weight=1.0)
        # Both L routes get half a track across the spanned g-cells.
        total = grid.demand_h.sum() + grid.demand_v.sum()
        # Each L covers 8 horizontal + 8 vertical g-cells at 0.5.
        assert total == pytest.approx(2 * (8 * 0.5 + 8 * 0.5))

    def test_same_bin_route_adds_nothing(self):
        grid = RoutingGrid.build(Rect(0, 0, 32, 32), [], bins=8)
        grid.add_l_route(1, 1, 2, 2, weight=1.0)
        assert grid.demand_h.sum() + grid.demand_v.sum() == 0

    def test_overflow_math(self):
        grid = RoutingGrid.build(Rect(0, 0, 8, 8), [], bins=2)
        cap = grid.capacity_h[0, 0]
        grid.demand_h[0, 0] = cap + 3.0
        assert grid.overflow_total() == pytest.approx(3.0)
        assert grid.overflowed_gcell_fraction() == pytest.approx(0.25)


class TestCongestion:
    def test_congestion_of_placed_design(self, two_stage_flat,
                                         two_stage_design):
        die = Rect(0, 0, 60, 30)
        placement = MacroPlacement("two_stage", "t", die)
        placement.block_rects[""] = die
        mem_a = two_stage_flat.cell_by_path("sa/mem")
        mem_b = two_stage_flat.cell_by_path("sb/mem")
        placement.macros[mem_a.index] = PlacedMacro(
            mem_a.index, mem_a.path, Rect(5, 12, 6, 4))
        placement.macros[mem_b.index] = PlacedMacro(
            mem_b.index, mem_b.path, Rect(45, 12, 6, 4))
        ports = assign_port_positions(TopInterface.of(two_stage_design), die)
        cells = place_cells(two_stage_flat, placement, ports)
        report = estimate_congestion(two_stage_flat, placement, cells,
                                     ports, bins=16)
        assert report.grc_percent >= 0
        assert 0 <= report.hot_fraction <= 1
        assert report.grid.demand_h.sum() > 0

    def test_clumped_layout_more_congested(self, tiny_c1_flat, tiny_c1):
        """Macros piled into a corner blob congest more than the same
        macros spread on a uniform grid over the whole die."""
        import math
        design, _truth, die_w, die_h = tiny_c1
        die = Rect(0, 0, die_w, die_h)
        ports = assign_port_positions(TopInterface.of(design), die)
        macros = tiny_c1_flat.macros()
        n = len(macros)
        cols = int(math.ceil(math.sqrt(n)))

        def build(clump: bool) -> MacroPlacement:
            placement = MacroPlacement("c1", "t", die)
            placement.block_rects[""] = die
            if clump:
                x = y = 0.0
                row_h = 0.0
                span = die_w * 0.35
                for cell in macros:
                    w, h = cell.ctype.width, cell.ctype.height
                    if x + w > span and x > 0:
                        x = 0.0
                        y += row_h
                        row_h = 0.0
                    placement.macros[cell.index] = PlacedMacro(
                        cell.index, cell.path, Rect(x, y, w, h))
                    x += w
                    row_h = max(row_h, h)
            else:
                pitch_x = die_w / cols
                pitch_y = die_h / cols
                for k, cell in enumerate(macros):
                    w, h = cell.ctype.width, cell.ctype.height
                    cx = (k % cols + 0.5) * pitch_x
                    cy = (k // cols + 0.5) * pitch_y
                    x = min(max(cx - w / 2, 0.0), die_w - w)
                    y = min(max(cy - h / 2, 0.0), die_h - h)
                    placement.macros[cell.index] = PlacedMacro(
                        cell.index, cell.path, Rect(x, y, w, h))
            return placement

        clumped = build(True)
        spread = build(False)
        cells_c = place_cells(tiny_c1_flat, clumped, ports)
        cells_s = place_cells(tiny_c1_flat, spread, ports)
        grc_c = estimate_congestion(tiny_c1_flat, clumped, cells_c,
                                    ports).grc_percent
        grc_s = estimate_congestion(tiny_c1_flat, spread, cells_s,
                                    ports).grc_percent
        assert grc_c > grc_s
