"""The levelized timing kernel: compiled arrays, levels, degenerates."""

import numpy as np
import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.rect import Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import Gseq, SeqKind, SeqNode, build_gseq
from repro.metrics import (
    NumpyBackend,
    compile_timing_arrays,
    timing_arrays_for,
)
from repro.placement.stdcell import place_cells
from repro.timing.sta import analyze_timing, analyze_timing_reference


def _gseq_for(flat):
    return build_gseq(build_gnet(flat), flat)


def _assert_reports_identical(flat, gseq, placement, cells, ports,
                              **kwargs):
    ref = analyze_timing_reference(flat, gseq, placement, cells, ports,
                                   **kwargs)
    new = analyze_timing(flat, gseq, placement, cells, ports,
                         backend=NumpyBackend(), **kwargs)
    assert (ref.clock_period, ref.wns, ref.tns, ref.n_paths,
            ref.n_failing, ref.worst_edge) \
        == (new.clock_period, new.wns, new.tns, new.n_paths,
            new.n_failing, new.worst_edge)
    return new


def _hand_gseq(nodes, edges):
    """A Gseq built directly from (nodes, edge dict) for edge cases."""
    succ = [[] for _ in nodes]
    pred = [[] for _ in nodes]
    for (u, v) in sorted(edges):
        succ[u].append(v)
        pred[v].append(u)
    return Gseq(nodes=nodes, succ=succ, pred=pred, edge_bits=dict(edges))


class TestCompiledArrays:
    def test_edges_follow_reference_visit_order(self, two_stage_flat):
        gseq = _gseq_for(two_stage_flat)
        arrays = compile_timing_arrays(gseq, two_stage_flat)
        expected = list(gseq.edge_bits)
        assert [(int(u), int(v))
                for u, v in zip(arrays.edge_u, arrays.edge_v)] == expected

    def test_levels_monotone_on_dag(self, two_stage_flat):
        gseq = _gseq_for(two_stage_flat)
        arrays = compile_timing_arrays(gseq, two_stage_flat)
        # The two-stage pipeline is acyclic: every edge climbs levels.
        for u, v in gseq.edge_bits:
            assert arrays.node_level[u] < arrays.node_level[v]
        assert arrays.n_levels >= 1
        covered = np.sort(np.concatenate(arrays.level_edges))
        assert np.array_equal(covered, np.arange(arrays.n_edges))

    def test_cache_on_gseq(self, two_stage_flat):
        gseq = _gseq_for(two_stage_flat)
        arrays = timing_arrays_for(gseq, two_stage_flat)
        assert timing_arrays_for(gseq, two_stage_flat) is arrays


class TestDegenerateGraphs:
    """Satellite: zero-edge, single-level and cyclic graphs behave the
    same on both kernel sets."""

    @pytest.fixture(scope="class")
    def context(self, two_stage_flat):
        die = Rect(0.0, 0.0, 60.0, 30.0)
        placement = MacroPlacement(design_name="two_stage",
                                   flow_name="degen", die=die)
        for cell in two_stage_flat.macros():
            placement.macros[cell.index] = PlacedMacro(
                cell.index, cell.path,
                Rect(5.0, 5.0, cell.ctype.width, cell.ctype.height))
        ports = assign_port_positions(two_stage_flat.top, die)
        cells = place_cells(two_stage_flat, placement, ports)
        return placement, cells, ports

    def test_zero_edges(self, two_stage_flat, context):
        placement, cells, ports = context
        gseq = _hand_gseq([SeqNode(0, SeqKind.PORT, "pin", 8, "")], {})
        arrays = compile_timing_arrays(gseq, two_stage_flat)
        assert arrays.n_levels == 0
        report = _assert_reports_identical(two_stage_flat, gseq,
                                           placement, cells, ports)
        assert report.n_paths == 0
        assert report.wns == 0.0
        assert report.tns == 0.0
        assert report.worst_edge is None

    def test_single_level_graph(self, two_stage_flat, context):
        placement, cells, ports = context
        macro = two_stage_flat.macros()[0]
        nodes = [SeqNode(0, SeqKind.PORT, "pin", 8, ""),
                 SeqNode(1, SeqKind.MACRO, macro.path, 8, "sa",
                         cells=[macro.index])]
        gseq = _hand_gseq(nodes, {(0, 1): 8})
        arrays = compile_timing_arrays(gseq, two_stage_flat)
        assert arrays.n_levels == 1
        report = _assert_reports_identical(two_stage_flat, gseq,
                                           placement, cells, ports)
        assert report.n_paths == 1
        assert report.worst_edge == ("pin", macro.path)

    def test_cyclic_graph_levelizes_and_matches(self, two_stage_flat,
                                                context):
        placement, cells, ports = context
        macros = two_stage_flat.macros()
        nodes = [SeqNode(0, SeqKind.MACRO, macros[0].path, 8, "sa",
                         cells=[macros[0].index]),
                 SeqNode(1, SeqKind.MACRO, macros[1].path, 8, "sb",
                         cells=[macros[1].index])]
        gseq = _hand_gseq(nodes, {(0, 1): 8, (1, 0): 8})
        arrays = compile_timing_arrays(gseq, two_stage_flat)
        # Both nodes sit on the cycle: parked in one shared level.
        assert arrays.n_levels == 1
        report = _assert_reports_identical(two_stage_flat, gseq,
                                           placement, cells, ports)
        assert report.n_paths == 2

    def test_unlocated_endpoints_skipped(self, two_stage_flat, context):
        _placement, cells, ports = context
        # Empty placement: macro nodes unlocated, their edges dropped.
        die = Rect(0.0, 0.0, 60.0, 30.0)
        empty = MacroPlacement(design_name="two_stage",
                               flow_name="degen", die=die)
        gseq = _gseq_for(two_stage_flat)
        report = _assert_reports_identical(two_stage_flat, gseq, empty,
                                           cells, ports)
        full = analyze_timing_reference(two_stage_flat, gseq,
                                        _placement, cells, ports)
        assert report.n_paths < full.n_paths

    def test_unknown_ports_skipped(self, two_stage_flat, context):
        placement, cells, _ports = context
        gseq = _gseq_for(two_stage_flat)
        report = _assert_reports_identical(two_stage_flat, gseq,
                                           placement, cells, {})
        full = analyze_timing_reference(two_stage_flat, gseq, placement,
                                        cells, _ports)
        assert report.n_paths <= full.n_paths

    def test_tight_clock_failing_paths_identical(self, two_stage_flat,
                                                 context):
        placement, cells, ports = context
        gseq = _gseq_for(two_stage_flat)
        report = _assert_reports_identical(two_stage_flat, gseq,
                                           placement, cells, ports,
                                           clock_period=1e-6)
        assert report.n_failing == report.n_paths > 0
        assert report.tns < 0
