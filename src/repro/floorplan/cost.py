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
from repro.geometry.rect import Point, Rect
from repro.metrics import AffinityPairs, NumpyBackend

#: The referee kernels the distance term runs on (stateless).
_KERNELS = NumpyBackend()


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
    weights:
        Penalty severities.
    scale:
        A reference length; the distance term is divided by it so costs
        are comparable across die sizes (penalties stay scale-free).
    """

    def __init__(self, blocks: List[Block], terminals: List[Terminal],
                 affinity: Sequence[Sequence[float]],
                 weights: CostWeights = None, scale: float = 1.0):
        self.blocks = blocks
        self.terminals = terminals
        self.weights = weights or CostWeights()
        self.scale = max(scale, 1e-12)
        self._pairs = None          # lazy metrics.AffinityPairs
        n = len(blocks)
        size = n + len(terminals)
        if len(affinity) != size:
            raise ValueError(
                f"affinity matrix is {len(affinity)}x..., expected {size}")
        self.block_pairs: List[Tuple[int, int, float]] = []
        self.terminal_pairs: List[Tuple[int, int, float]] = []
        for i in range(n):
            for j in range(i + 1, n):
                a = affinity[i][j] + affinity[j][i]
                if a > 0:
                    self.block_pairs.append((i, j, a))
            for t, terminal in enumerate(terminals):
                a = affinity[i][n + t] + affinity[n + t][i]
                if a > 0:
                    self.terminal_pairs.append((i, terminal.index, a))
        self._terminal_pos: Dict[int, Point] = {
            t.index: t.pos for t in terminals}

    # -- pieces ------------------------------------------------------------

    def _affinity_pairs(self):
        """The distance kernel's compiled pair view (built once)."""
        if self._pairs is None:
            terminal_pairs = []
            for i, t, a in self.terminal_pairs:
                pos = self._terminal_pos[t]
                terminal_pairs.append((i, (pos.x, pos.y), a))
            self._pairs = AffinityPairs(self.block_pairs, terminal_pairs)
        return self._pairs

    def distance_term(self, rects: Dict[int, Rect],
                      centers: Dict[int, Tuple[float, float]] = None
                      ) -> float:
        """Affinity-weighted sum of Manhattan center distances.

        ``centers`` optionally passes pre-computed ``(cx, cy)`` block
        centers (e.g. ``BudgetReport.leaf_centers``) so the
        evaluation skips recomputing every rectangle center; values
        must equal ``rect.center`` of the corresponding rectangle.  The
        sum is the NumPy referee's ``affinity_distance`` kernel, which
        reduces sequentially in pair order, so the result is
        bit-identical to the historical Python accumulator.
        """
        if centers is None:
            centers = {i: (r.x + r.w / 2.0, r.y + r.h / 2.0)
                       for i, r in rects.items()}
        total = _KERNELS.affinity_distance(self._affinity_pairs(),
                                           centers)
        return total / self.scale

    def penalty(self, report: BudgetReport) -> float:
        w = self.weights
        return (1.0
                + w.target_area * report.target_deficit
                + w.min_area * report.min_deficit
                + w.macro_area * report.macro_deficit)

    def cost(self, report: BudgetReport) -> float:
        """The paper's objective for one budgeted layout.

        Uses the centers recorded on the report (when it carries them)
        instead of recomputing every rectangle center, so a budgeted
        layout's rectangles are never built here.
        """
        if report.leaf_centers:
            term = self.distance_term({}, centers=report.leaf_centers)
        else:
            term = self.distance_term(report.leaf_rects)
        return self.penalty(report) * (term + self.weights.epsilon)

    def total_affinity(self) -> float:
        return (sum(a for _i, _j, a in self.block_pairs)
                + sum(a for _i, _t, a in self.terminal_pairs))
