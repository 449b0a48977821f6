"""The layout cost model: penalty times affinity-weighted distance.

The paper minimizes ``penalty * sum_{i,j} distance(i, j) * M[i][j]``
where the sum runs over dataflow-graph vertices (movable blocks plus
fixed ports / external macros) and the penalty multiplier punishes
macro-overlap, a_m and a_t violations at increasing severity, keeping
illegal intermediate solutions explorable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.budget import BudgetReport


@dataclass(frozen=True)
class CostWeights:
    """Penalty severities, ordered as the paper orders them.

    Yielding target area is cheapest, minimum area is worse, macro area
    (an infeasible macro placement) is most severe.
    """

    target_area: float = 0.6
    min_area: float = 6.0
    macro_area: float = 40.0
    #: Added to the distance term so penalties still order zero-affinity
    #: layouts (e.g. a level whose blocks exchange no dataflow).
    epsilon: float = 1e-3


class CostModel:
    """Evaluates ``penalty * sum(dist * affinity)`` for budget layouts.

    Parameters
    ----------
    blocks:
        Movable blocks; their indices address affinity rows 0..n-1.
    terminals:
        Fixed points; terminal ``t`` addresses row ``n + t.index``.
    affinity:
        Dense symmetric matrix of size (n + len(terminals))^2; only
        pairs with non-zero affinity are kept.
    scale:
        A reference length; the distance term is divided by it so costs
        are comparable across die sizes (penalties stay scale-free).
    """

    def __init__(self, blocks: List[Block], terminals: List[Terminal],
                 affinity: Sequence[Sequence[float]], scale: float = 1.0):
        self.blocks = blocks
        self.terminals = terminals
        self.weights = CostWeights()
        self.scale = max(scale, 1e-12)
        n = len(blocks)
        size = n + len(terminals)
        if len(affinity) != size:
            raise ValueError(
                f"affinity matrix is {len(affinity)}x..., expected {size}")
        #: ``(i, j, a)`` pairs of movable blocks.
        self.block_pairs: List[Tuple[int, int, float]] = []
        #: ``(i, (tx, ty), a)`` pairs of a block and a fixed position.
        self.terminal_pairs: List[Tuple[int, Tuple[float, float],
                                        float]] = []
        for i in range(n):
            for j in range(i + 1, n):
                a = affinity[i][j] + affinity[j][i]
                if a > 0:
                    self.block_pairs.append((i, j, a))
            for t, terminal in enumerate(terminals):
                a = affinity[i][n + t] + affinity[n + t][i]
                if a > 0:
                    pos = terminal.pos
                    self.terminal_pairs.append((i, (pos.x, pos.y), a))

    # -- pieces ------------------------------------------------------------

    def distance_term(self, centers: Dict[int, Tuple[float, float]]
                      ) -> float:
        """Affinity-weighted sum of Manhattan centre distances, scaled.

        ``centers`` maps each block to its ``(cx, cy)`` centre (e.g.
        ``BudgetReport.leaf_centers``); a referenced block without one
        is a ``KeyError``.  Block pairs are summed first, then terminal
        pairs, each in construction order.
        """
        total = 0.0
        for i, j, a in self.block_pairs:
            cxi, cyi = centers[i]
            cxj, cyj = centers[j]
            total += a * (abs(cxi - cxj) + abs(cyi - cyj))
        for i, (tx, ty), a in self.terminal_pairs:
            cxi, cyi = centers[i]
            total += a * (abs(cxi - tx) + abs(cyi - ty))
        return total / self.scale

    def penalty(self, report: BudgetReport) -> float:
        w = self.weights
        return (1.0
                + w.target_area * report.target_deficit
                + w.min_area * report.min_deficit
                + w.macro_area * report.macro_deficit)

    def cost(self, report: BudgetReport) -> float:
        """The paper's objective for one budgeted layout, scored on the
        centres the report records (its rectangles are never built)."""
        term = self.distance_term(report.leaf_centers)
        return self.penalty(report) * (term + self.weights.epsilon)
