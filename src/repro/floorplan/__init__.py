"""Per-level layout generation: hybrid hard/soft block floorplanning.

A floorplanning instance at one hierarchy level is a set of blocks
〈Γ, a_m, a_t〉 plus fixed terminals (ports, external macros) and an
affinity matrix.  The layout is a slicing structure searched with
simulated annealing; rectangles are assigned **top-down by area budget**
— dimensions are a budget, not a constraint — with legality repaired by
moving area between siblings at increasing penalty severity
(a_t < a_m < macro area).
"""

from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.budget import (
    BudgetReport,
    budgeted_layout,
)
from repro.floorplan.cost import CostModel, CostWeights
from repro.floorplan.engine import (
    LayoutConfig,
    LayoutProblem,
    LayoutResult,
    generate_layout,
)

__all__ = [
    "Block",
    "BudgetReport",
    "CostModel",
    "CostWeights",
    "LayoutConfig",
    "LayoutProblem",
    "LayoutResult",
    "Terminal",
    "budgeted_layout",
    "generate_layout",
]
