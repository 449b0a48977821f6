"""Stress tests: larger slicing instances stay correct and bounded."""

import random
import time

import pytest

from repro.floorplan.blocks import Block
from repro.floorplan.engine import LayoutConfig, LayoutProblem, generate_layout
from repro.geometry.rect import Rect, total_overlap_area
from repro.shapecurve.curve import ShapeCurve
from repro.slicing.anneal import AnnealConfig
from repro.slicing.moves import perturb
from repro.slicing.polish import PolishExpression


class TestLargeExpressions:
    def test_long_walk_on_40_blocks(self):
        rng = random.Random(11)
        expr = PolishExpression.initial(40, rng)
        for _ in range(2000):
            perturb(expr, rng)
        assert expr.is_valid()
        assert sorted(expr.operands()) == list(range(40))

    def test_layout_with_24_mixed_blocks(self):
        rng = random.Random(5)
        blocks = []
        for i in range(24):
            if i % 3 == 0:
                w = 4 + rng.random() * 8
                h = 4 + rng.random() * 8
                curve = ShapeCurve.for_rect(round(w, 1), round(h, 1))
                area = curve.min_area
                blocks.append(Block(i, f"m{i}", curve, area,
                                    area * 1.4, 1))
            else:
                area = 30 + rng.random() * 60
                blocks.append(Block(i, f"s{i}", ShapeCurve.trivial(),
                                    area, area * 1.3))
        total = sum(b.area_target for b in blocks)
        side = (total * 1.05) ** 0.5
        aff = [[0.0] * 24 for _ in range(24)]
        for i in range(23):
            aff[i][i + 1] = aff[i + 1][i] = 8.0
        problem = LayoutProblem(Rect(0, 0, side, side), blocks, aff)
        config = LayoutConfig(anneal=AnnealConfig(
            seed=2, moves_per_block=80, max_moves=3000,
            moves_per_temperature=30, restarts=1))
        start = time.perf_counter()
        result = generate_layout(problem, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "layout generation must stay fast"
        assert len(result.rects) == 24
        assert total_overlap_area(result.rects.values()) \
            == pytest.approx(0.0, abs=1e-6)
        # Macro feasibility: every macro block's rect fits its curve,
        # or the report owns up to the violation.
        for block in blocks:
            if block.has_macros:
                rect = result.rects[block.index]
                assert block.curve.feasible(rect.w, rect.h) \
                    or result.report.macro_deficit > 0
