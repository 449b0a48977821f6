"""Focused tests for RecursiveFloorplanner internals."""

import pytest

from repro.core.config import Effort, HiDaPConfig
from repro.core.dataflow import TerminalSpec
from repro.core.recursive import (
    CURVE_INFLATION,
    MAX_EXT_TERMINALS,
    RecursiveFloorplanner,
)
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.shapecurve.generation import generate_shape_curves
from repro.shapecurve.curve import ShapeCurve


@pytest.fixture()
def floorplanner(two_stage_design, two_stage_flat):
    flat = two_stage_flat
    tree = build_hierarchy(two_stage_design, flat)
    gnet = build_gnet(flat)
    gseq = build_gseq(gnet, flat)

    def own_curves(node):
        return [ShapeCurve.for_rect(flat.cells[m].ctype.width,
                                    flat.cells[m].ctype.height)
                for m in node.own_macros]

    curves = {node.path: curve for node, curve in generate_shape_curves(
        tree.root, lambda n: n.children, own_curves).items()}
    config = HiDaPConfig(seed=1, effort=Effort.FAST)
    return RecursiveFloorplanner(
        flat=flat, gnet=gnet, gseq=gseq, tree=tree, curves=curves,
        config=config, port_positions={"pin": Point(0, 20),
                                       "pout": Point(60, 20)})


class TestTerminals:
    def test_port_terminals_built(self, floorplanner):
        terms = floorplanner._port_terminals()
        names = {t.name for t in terms}
        assert names == {"pin", "pout"}
        for t in terms:
            assert t.kind == "port"
            assert len(t.seq_nodes) == 1

    def test_cap_terminals_keeps_nearest(self, floorplanner):
        region = Rect(0, 0, 10, 10)
        terms = [TerminalSpec(f"t{i}", Point(float(i * 10), 0.0), [])
                 for i in range(MAX_EXT_TERMINALS + 10)]
        capped = floorplanner._cap_terminals(terms, region)
        assert len(capped) == MAX_EXT_TERMINALS
        # The nearest terminal to the region center survives.
        assert any(t.name == "t0" for t in capped)
        # The farthest is dropped.
        assert not any(t.name == f"t{MAX_EXT_TERMINALS + 9}"
                       for t in capped)

    def test_cap_terminals_noop_when_small(self, floorplanner):
        terms = [TerminalSpec("a", Point(0, 0), [])]
        assert floorplanner._cap_terminals(terms, Rect(0, 0, 1, 1)) \
            == terms


class TestCurveForSeed:
    def test_macro_seed_curve(self, floorplanner, two_stage_flat):
        from repro.core.decluster import BlockSeed
        mem = two_stage_flat.cell_by_path("sa/mem")
        seed = BlockSeed(name="sa/mem", macro_cell=mem.index)
        curve = floorplanner._curve_for_seed(seed)
        assert curve.feasible(6, 4)
        assert curve.feasible(4, 6)      # rotation included

    def test_node_seed_curve_inflated(self, floorplanner):
        from repro.core.decluster import BlockSeed
        node = floorplanner.tree.node("sa")
        seed = BlockSeed(name="sa", node=node)
        curve = floorplanner._curve_for_seed(seed)
        raw = floorplanner.curves["sa"]
        # Inflation adds whitespace: the min area grows by the factor.
        assert curve.min_area == pytest.approx(
            raw.min_area * CURVE_INFLATION, rel=1e-6)


class TestRunProducesConsistentState:
    def test_block_rects_nested(self, floorplanner):
        placement = floorplanner.run(Rect(0, 0, 40, 40))
        die = placement.block_rects[""]
        for path, rect in placement.block_rects.items():
            assert die.contains_rect(rect, tol=1e-6), path

    def test_flow_name_propagates(self, floorplanner):
        placement = floorplanner.run(Rect(0, 0, 40, 40),
                                     flow_name="custom")
        assert placement.flow_name == "custom"
