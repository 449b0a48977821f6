"""Tests for the delay model and STA."""

import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.rect import Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.flatten import TopInterface
from repro.placement.stdcell import place_cells
from repro.timing.delay import DelayModel
from repro.timing.sta import analyze_timing, default_clock_period


class TestDelayModel:
    def test_monotone_in_distance(self):
        model = DelayModel()
        assert model.path_delay(0) < model.path_delay(10) \
            < model.path_delay(100)

    def test_zero_distance_is_logic_only(self):
        model = DelayModel(clk_to_q=0.1, logic_delay=0.5, setup=0.1,
                           wire_per_unit=1.0)
        assert model.path_delay(0) == pytest.approx(0.7)

    def test_negative_distance_clamped(self):
        model = DelayModel()
        assert model.path_delay(-5) == model.path_delay(0)


class TestClockPeriod:
    def test_scales_with_die(self):
        assert default_clock_period(100, 100) \
            < default_clock_period(500, 500)

    def test_flow_independent(self):
        assert default_clock_period(123, 77) \
            == default_clock_period(123, 77)


def _placement(flat, good: bool):
    die = Rect(0, 0, 60, 30)
    placement = MacroPlacement("two_stage", "t", die)
    placement.block_rects[""] = die
    mem_a = flat.cell_by_path("sa/mem")
    mem_b = flat.cell_by_path("sb/mem")
    ax, bx = (5, 45) if good else (45, 5)   # pin sits on the west wall
    placement.macros[mem_a.index] = PlacedMacro(
        mem_a.index, mem_a.path, Rect(ax, 13, 6, 4))
    placement.macros[mem_b.index] = PlacedMacro(
        mem_b.index, mem_b.path, Rect(bx, 13, 6, 4))
    return placement


class TestSta:
    def test_report_fields(self, two_stage_flat, two_stage_design):
        placement = _placement(two_stage_flat, good=True)
        ports = assign_port_positions(TopInterface.of(two_stage_design),
                                      placement.die)
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        cells = place_cells(two_stage_flat, placement, ports)
        report = analyze_timing(two_stage_flat, gseq, placement, cells,
                                ports)
        assert report.n_paths > 0
        assert report.tns <= 0
        assert report.wns_percent <= 0
        assert report.clock_period > 0

    def test_bad_placement_times_worse(self, two_stage_flat,
                                       two_stage_design):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        results = {}
        for good in (True, False):
            placement = _placement(two_stage_flat, good)
            ports = assign_port_positions(TopInterface.of(two_stage_design),
                                          placement.die)
            cells = place_cells(two_stage_flat, placement, ports)
            results[good] = analyze_timing(
                two_stage_flat, gseq, placement, cells, ports,
                clock_period=1.0)
        assert results[False].wns <= results[True].wns
        assert results[False].tns <= results[True].tns

    def test_generous_clock_closes_timing(self, two_stage_flat,
                                          two_stage_design):
        placement = _placement(two_stage_flat, good=True)
        ports = assign_port_positions(TopInterface.of(two_stage_design),
                                      placement.die)
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        cells = place_cells(two_stage_flat, placement, ports)
        report = analyze_timing(two_stage_flat, gseq, placement, cells,
                                ports, clock_period=1e9)
        assert report.n_failing == 0
        assert report.tns == 0
        assert report.wns_percent == 0.0

    def test_impossible_clock_fails_everything(self, two_stage_flat,
                                               two_stage_design):
        placement = _placement(two_stage_flat, good=True)
        ports = assign_port_positions(TopInterface.of(two_stage_design),
                                      placement.die)
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        cells = place_cells(two_stage_flat, placement, ports)
        report = analyze_timing(two_stage_flat, gseq, placement, cells,
                                ports, clock_period=1e-6)
        assert report.n_failing == report.n_paths
        assert report.worst_edge is not None
