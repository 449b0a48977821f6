"""Tests for top-down area budgeting (Sect. IV-E / Fig. 8)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.floorplan.blocks import Block
from repro.floorplan.budget import block_subtrees, budgeted_layout
from repro.geometry.rect import Rect, total_overlap_area
from repro.shapecurve.curve import ShapeCurve
from repro.slicing.moves import perturb
from repro.slicing.polish import H, PolishExpression, V


def soft_blocks(targets):
    return [Block(i, f"b{i}", ShapeCurve.trivial(), t, t)
            for i, t in enumerate(targets)]


def layout_for(expr_tokens, blocks, region):
    return budgeted_layout(PolishExpression(expr_tokens), region, blocks,
                           block_subtrees(blocks))


class TestFig8Example:
    def test_paper_example(self):
        """Fig. 8: five leaves with targets in a 3x3 budget; areas are
        met exactly and the layout tiles the region."""
        targets = [1.5, 1.5, 3.0, 1.5, 1.5]
        blocks = soft_blocks(targets)
        report = layout_for([0, 1, V, 2, H, 3, 4, V, H], blocks,
                            Rect(0, 0, 3, 3))
        assert report.is_legal
        for i, target in enumerate(targets):
            assert report.leaf_rects[i].area == pytest.approx(target)
        assert sum(r.area for r in report.leaf_rects.values()) \
            == pytest.approx(9.0)


class TestBudgetInvariants:
    def test_exact_tiling(self):
        blocks = soft_blocks([2, 4, 6, 8])
        region = Rect(5, 7, 10, 2)
        report = layout_for([0, 1, V, 2, H, 3, V], blocks, region)
        assert sum(r.area for r in report.leaf_rects.values()) \
            == pytest.approx(region.area)
        assert total_overlap_area(report.leaf_rects.values()) \
            == pytest.approx(0.0)
        for rect in report.leaf_rects.values():
            assert region.contains_rect(rect, tol=1e-6)

    def test_macro_repair_moves_area(self):
        """A block whose macro needs width gets it from its sibling."""
        macro_curve = ShapeCurve([(6, 2)])      # rigid 6x2 macro
        blocks = [Block(0, "m", macro_curve, 12, 12, 1),
                  Block(1, "soft", ShapeCurve.trivial(), 12, 12)]
        # Region 8 wide, 3 tall: equal split would give each 4 width;
        # the macro needs 6.
        report = layout_for([0, 1, V], blocks, Rect(0, 0, 8, 3))
        assert report.leaf_rects[0].w >= 6 - 1e-9
        assert report.repairs >= 1
        assert report.macro_deficit == 0.0
        # The soft sibling yielded area below its target.
        assert report.target_deficit > 0 or report.min_deficit > 0

    def test_infeasible_reports_macro_deficit(self):
        macro_curve = ShapeCurve([(6, 6)])
        blocks = [Block(0, "m", macro_curve, 36, 36, 1)]
        report = layout_for([0], blocks, Rect(0, 0, 4, 4))
        assert report.macro_deficit > 0
        assert not report.is_legal

    def test_severity_classification(self):
        """Shrinking below a_t but above a_m is a target violation
        only; below a_m adds a min violation."""
        blocks = [Block(0, "a", ShapeCurve.trivial(), area_min=4,
                        area_target=8),
                  Block(1, "b", ShapeCurve.trivial(), area_min=4,
                        area_target=8)]
        # Region area 12 < sum targets 16 but > sum minima 8.
        report = layout_for([0, 1, V], blocks, Rect(0, 0, 6, 2))
        assert report.target_deficit > 0
        assert report.min_deficit == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=1000))
    def test_random_trees_tile_exactly(self, n_blocks, seed):
        """Property: any slicing structure over soft blocks tiles the
        region with zero overlap and exact area budget."""
        rng = random.Random(seed)
        targets = [1.0 + rng.random() * 9.0 for _ in range(n_blocks)]
        blocks = soft_blocks(targets)
        expr = PolishExpression.initial(n_blocks, rng)
        for _ in range(rng.randrange(8)):
            perturb(expr, rng)
        region = Rect(0, 0, 10 + rng.random() * 20, 5 + rng.random() * 20)
        report = budgeted_layout(expr, region, blocks,
                                 block_subtrees(blocks))
        assert len(report.leaf_rects) == n_blocks
        assert sum(r.area for r in report.leaf_rects.values()) \
            == pytest.approx(region.area, rel=1e-6)
        assert total_overlap_area(report.leaf_rects.values()) \
            == pytest.approx(0.0, abs=1e-6)
        # Target areas are proportional shares: with equal scaling each
        # block's share is its target / sum * region area.
        scale = region.area / sum(targets)
        for i, target in enumerate(targets):
            assert report.leaf_rects[i].area \
                == pytest.approx(target * scale, rel=1e-6)
