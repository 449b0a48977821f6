"""Fig. 8 — recursive top-down layout generation with area budgets.

The figure shows a slicing tree whose leaves carry target areas and its
layout in a 3x3-unit budget: the region is recursively split according
to subtree target sums, consuming exactly the assigned area.  The bench
reproduces the example, prints the resulting rectangles and verifies
the budget semantics, including the repair path when a macro would not
fit its share.
"""

import pytest

from benchmarks.conftest import pedantic
from repro.floorplan.blocks import Block
from repro.floorplan.budget import block_subtrees, budgeted_layout
from repro.geometry.rect import Rect
from repro.shapecurve.curve import ShapeCurve
from repro.slicing.polish import H, PolishExpression, V
from repro.viz.ascii_art import ascii_floorplan

#: Five leaves with the 3x3 = 9 area units of the figure.
TARGETS = [1.5, 1.5, 3.0, 1.5, 1.5]
EXPRESSION = [0, 1, V, 2, H, 3, 4, V, H]


def test_fig8_budgeted_layout(benchmark):
    blocks = [Block(i, f"leaf{i}", ShapeCurve.trivial(), t, t)
              for i, t in enumerate(TARGETS)]
    region = Rect(0, 0, 3, 3)

    def run():
        return budgeted_layout(PolishExpression(EXPRESSION), region, blocks,
                               block_subtrees(blocks))

    report = pedantic(benchmark, run)

    print("\nFig. 8: budgeted layout of "
          f"{' '.join(str(t) for t in EXPRESSION)} in a 3x3 region:")
    for i, rect in sorted(report.leaf_rects.items()):
        print(f"  leaf{i}: a_t={TARGETS[i]} -> "
              f"{rect.w:.2f} x {rect.h:.2f} @ ({rect.x:.2f},{rect.y:.2f})"
              f" area={rect.area:.2f}")
    print(ascii_floorplan(region,
                          [(f"l{i}", r)
                           for i, r in report.leaf_rects.items()],
                          width=36))

    # Every a_t demand is met exactly; the layout is the whole budget.
    for i, target in enumerate(TARGETS):
        assert report.leaf_rects[i].area == pytest.approx(target)
    assert sum(r.area for r in report.leaf_rects.values()) \
        == pytest.approx(region.area)
    assert report.is_legal

    # The paper's illegality example: were leaf 0 a 2x1 macro, its
    # share could not hold it and the budgeting must repair by moving
    # sibling area (tracked as repairs + possibly penalties).
    rigid = [Block(i, f"leaf{i}",
                   ShapeCurve([(2, 1)]) if i == 0
                   else ShapeCurve.trivial(),
                   t, t, macro_count=1 if i == 0 else 0)
             for i, t in enumerate(TARGETS)]
    repaired = budgeted_layout(PolishExpression(EXPRESSION), region, rigid,
                               block_subtrees(rigid))
    rect0 = repaired.leaf_rects[0]
    assert rect0.w >= 2 - 1e-9 or rect0.h >= 2 - 1e-9 \
        or repaired.macro_deficit > 0
    print(f"with a 2x1 macro in leaf0: repairs={repaired.repairs}, "
          f"leaf0 gets {rect0.w:.2f}x{rect0.h:.2f}, "
          f"macro_deficit={repaired.macro_deficit:.3f}")
