"""Tests for the cost model and the layout engine."""

import pytest

from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.budget import BudgetReport
from repro.floorplan.cost import CostModel
from repro.floorplan.engine import (
    LayoutConfig,
    LayoutProblem,
    generate_layout,
)
from repro.geometry.rect import Point, Rect
from repro.shapecurve.curve import ShapeCurve
from repro.slicing.anneal import AnnealConfig


def soft(i, name, area):
    return Block(i, name, ShapeCurve.trivial(), area, area)


class TestCostModel:
    def test_penalty_ordering(self):
        """Macro violations cost more than a_m, which cost more than
        a_t (the paper's severity order)."""
        blocks = [soft(0, "a", 1)]
        model = CostModel(blocks, [], [[0.0]])
        base = BudgetReport()
        t = BudgetReport(target_deficit=0.5)
        m = BudgetReport(min_deficit=0.5)
        g = BudgetReport(macro_deficit=0.5)
        assert model.penalty(base) == 1.0
        assert model.penalty(t) < model.penalty(m) < model.penalty(g)

    def test_distance_term(self):
        blocks = [soft(0, "a", 1), soft(1, "b", 1)]
        aff = [[0, 2.0], [2.0, 0]]
        model = CostModel(blocks, [], aff, scale=1.0)
        # centers (1,1) and (5,1): manhattan 4; affinity both ways = 4.
        assert model.distance_term({0: (1.0, 1.0), 1: (5.0, 1.0)}) \
            == pytest.approx(16.0)

    def test_terminal_pairs(self):
        blocks = [soft(0, "a", 1)]
        term = Terminal(1, "p", Point(10, 0))
        aff = [[0, 3.0], [3.0, 0]]
        model = CostModel(blocks, [term], aff, scale=1.0)
        # center (1,1) to (10,0): 9 + 1 = 10; affinity 6.
        assert model.distance_term({0: (1.0, 1.0)}) == pytest.approx(60.0)

    def test_matrix_size_checked(self):
        with pytest.raises(ValueError):
            CostModel([soft(0, "a", 1)], [], [[0, 0], [0, 0]])

    def test_zero_affinity_cost_still_ordered_by_penalty(self):
        blocks = [soft(0, "a", 1)]
        model = CostModel(blocks, [], [[0.0]])
        legal = BudgetReport(leaf_rects={0: Rect(0, 0, 1, 1)})
        illegal = BudgetReport(macro_deficit=1.0,
                               leaf_rects={0: Rect(0, 0, 1, 1)})
        assert model.cost(illegal) > model.cost(legal)


class TestBudgetReport:
    def test_equality_and_repr_are_by_value(self):
        """A report from leaf boxes equals one from the same ``Rect``s,
        so results holding reports compare by value."""
        from_boxes = BudgetReport(0.25, repairs=2,
                                  leaf_centers={0: (1.5, 1.0)},
                                  leaf_boxes={0: (0.0, 0.0, 3.0, 2.0)})
        from_rects = BudgetReport(0.25, repairs=2,
                                  leaf_centers={0: (1.5, 1.0)},
                                  leaf_rects={0: Rect(0.0, 0.0, 3.0, 2.0)})
        assert from_boxes == from_rects
        assert from_boxes != BudgetReport(0.25, repairs=3,
                                          leaf_centers={0: (1.5, 1.0)},
                                          leaf_rects=from_rects.leaf_rects)
        assert repr(from_boxes) == repr(from_rects)
        assert repr(from_boxes).startswith(
            "BudgetReport(target_deficit=0.25, min_deficit=0.0, ")


class TestGenerateLayout:
    def fast_config(self, seed=1):
        return LayoutConfig(anneal=AnnealConfig(
            seed=seed, moves_per_block=60, min_moves=120, max_moves=1200,
            moves_per_temperature=24, restarts=1))

    def test_single_block(self):
        problem = LayoutProblem(Rect(0, 0, 10, 10), [soft(0, "a", 100)],
                                [[0.0]])
        result = generate_layout(problem, self.fast_config())
        assert result.rects[0] == Rect(0, 0, 10, 10)
        assert result.is_legal

    def test_affinity_brings_blocks_together(self):
        """Three blocks where 0-2 have affinity: they end up closer
        than the unrelated pair on average."""
        blocks = [soft(0, "a", 30), soft(1, "b", 30), soft(2, "c", 30)]
        aff = [[0, 0, 8.0], [0, 0, 0], [8.0, 0, 0]]
        problem = LayoutProblem(Rect(0, 0, 9, 10), blocks, aff)
        result = generate_layout(problem, self.fast_config())
        d02 = result.rects[0].center.manhattan(result.rects[2].center)
        d01 = result.rects[0].center.manhattan(result.rects[1].center)
        assert d02 <= d01 + 1e-9

    def test_sliver_region_feasible(self):
        """Macros in a thin strip force the all-H stack: the seeded
        chain guarantees the engine finds it."""
        blocks = [Block(i, f"m{i}", ShapeCurve.for_rect(4, 4), 16, 20, 1)
                  for i in range(4)]
        problem = LayoutProblem(Rect(0, 0, 4.5, 40), blocks,
                                [[0.0] * 4 for _ in range(4)])
        result = generate_layout(problem, self.fast_config(seed=1))
        assert result.report.macro_deficit == pytest.approx(0.0)

    def test_terminal_pull(self):
        """A block attracted to a west terminal lands on the west."""
        blocks = [soft(0, "west", 25), soft(1, "free", 25)]
        term = Terminal(2, "pad", Point(0, 5))
        aff = [[0, 0, 50.0], [0, 0, 0], [50.0, 0, 0]]
        problem = LayoutProblem(Rect(0, 0, 10, 5), blocks, aff, [term])
        result = generate_layout(problem, self.fast_config())
        assert result.rects[0].center.x < result.rects[1].center.x

    def test_deterministic(self):
        blocks = [soft(i, f"b{i}", 10 + i) for i in range(5)]
        aff = [[1.0] * 5 for _ in range(5)]
        problem = LayoutProblem(Rect(0, 0, 10, 8), blocks, aff)
        a = generate_layout(problem, self.fast_config(seed=7))
        b = generate_layout(problem, self.fast_config(seed=7))
        assert a.rects == b.rects
        assert a.cost == b.cost
