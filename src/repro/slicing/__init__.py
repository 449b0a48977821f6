"""Slicing floorplan structures and their annealing search.

The layout of every hierarchy level is represented as a slicing tree,
encoded as a normalized Polish expression (Wong & Liu, DAC'86).  The
expression is perturbed with the three classic moves and searched with
simulated annealing; evaluation is done either bottom-up (shape-curve
area minimization, Sect. IV-A of the paper) or top-down (area-budgeted
layout generation, Sect. IV-E).
"""

from repro.slicing.anneal import AnnealConfig, Annealer, AnnealResult
from repro.slicing.moves import Move, perturb, undo
from repro.slicing.polish import PolishExpression, H, V
from repro.slicing.tree import (
    EvalStats,
    SlicingNode,
    SubtreeCache,
    build_tree,
)

__all__ = [
    "AnnealConfig",
    "EvalStats",
    "Move",
    "SubtreeCache",
    "Annealer",
    "AnnealResult",
    "PolishExpression",
    "SlicingNode",
    "build_tree",
    "perturb",
    "undo",
    "H",
    "V",
]
