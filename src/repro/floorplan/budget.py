"""Top-down area-budgeted layout generation (paper Sect. IV-E).

Unlike bottom-up shape-curve packing, the available rectangle is treated
as a *budget*: the layout always consumes exactly the assigned area.  At
every slicing-tree node the rectangle is split according to the target
areas (a_t) of the two subtrees; when the resulting child rectangle
cannot hold its subtree's macros (checked against the composed shape
curve Γ), area is moved from the sibling, and the move is penalized by
the kind of area the sibling yielded — target slack (cheapest), minimum
area, or macro area (infeasible, most severe).

The expansion is one loop over an explicit stack of plain
``(lo, hi, x, y, w, h)`` boxes: a subtree is the token slice
``tokens[lo:hi]`` (see :mod:`repro.slicing.tree`), split at the
right-operand start that one :func:`~repro.slicing.tree.slice_starts`
pass found, and the right child is pushed first so nodes expand in
pre-order (node, left, right).  Each split asks a
:class:`~repro.slicing.tree.SubtreeCache` for its children's 〈Γ, a_m,
a_t〉; the root's own curve is never needed.  Leaf boxes and per-node
deficit contributions are appended in that pre-order and each deficit
is folded with one ``sum`` at the end.  No node builds a
:class:`~repro.geometry.rect.Rect`: shares are clamped to ``[0, span]``,
so every box is non-negative by construction, and :class:`BudgetReport`
builds the leaf rectangles only when they are read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.floorplan.blocks import Block
from repro.geometry.rect import Rect
from repro.shapecurve.curve import MAX_POINTS
from repro.slicing.polish import H, PolishExpression
from repro.slicing.tree import EvalStats, SubtreeCache, slice_starts


#: A leaf's ``(x, y, w, h)``.
Box = Tuple[float, float, float, float]

_INF = float("inf")


class BudgetReport:
    """Violation accounting for one budgeted layout.

    All deficits are relative (fraction of the respective area), so the
    penalty is scale-free.  A layout records each leaf as a plain
    :data:`Box` and its centre; :attr:`leaf_rects` builds the
    ``Rect`` view from the boxes on first read, so the annealer, which
    scores centres only, never builds one.
    """

    __slots__ = ("target_deficit", "min_deficit", "macro_deficit",
                 "repairs", "leaf_centers", "_boxes", "_rects")

    def __init__(self, target_deficit: float = 0.0,
                 min_deficit: float = 0.0, macro_deficit: float = 0.0,
                 repairs: int = 0,
                 leaf_rects: Optional[Dict[int, Rect]] = None,
                 leaf_centers: Optional[Dict[int, Tuple[float, float]]]
                 = None,
                 leaf_boxes: Optional[Dict[int, Box]] = None):
        self.target_deficit = target_deficit  # a_t violated, a_m met
        self.min_deficit = min_deficit        # a_m violated
        self.macro_deficit = macro_deficit    # macros do not fit
        self.repairs = repairs                # sibling area moves
        #: ``block -> (cx, cy)`` box centres, recorded during the
        #: expansion so the cost model's distance term does not
        #: recompute them.  Values equal ``leaf_rects[b].center``.
        self.leaf_centers = {} if leaf_centers is None else leaf_centers
        self._boxes = {} if leaf_boxes is None else leaf_boxes
        self._rects = leaf_rects

    @property
    def leaf_rects(self) -> Dict[int, Rect]:
        """``block -> Rect``, built from the leaf boxes on first read."""
        if self._rects is None:
            self._rects = {b: Rect(*box) for b, box in self._boxes.items()}
        return self._rects

    @property
    def is_legal(self) -> bool:
        return self.macro_deficit <= 1e-9 and self.min_deficit <= 1e-9

    def _fields(self) -> Tuple:
        return (self.target_deficit, self.min_deficit, self.macro_deficit,
                self.repairs, self.leaf_rects, self.leaf_centers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BudgetReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("BudgetReport(target_deficit=%r, min_deficit=%r, "
                "macro_deficit=%r, repairs=%r, leaf_rects=%r, "
                "leaf_centers=%r)" % self._fields())


def block_subtrees(blocks: List[Block], limit: int = MAX_POINTS,
                   stats: Optional[EvalStats] = None) -> SubtreeCache:
    """A :class:`SubtreeCache` over ``blocks``' curves and a_m / a_t."""
    return SubtreeCache([b.curve for b in blocks], limit,
                        area_min=[b.area_min for b in blocks],
                        area_target=[b.area_target for b in blocks],
                        stats=stats)


def budgeted_layout(expr: PolishExpression, region: Rect,
                    blocks: List[Block], subtrees: SubtreeCache,
                    stats: Optional[EvalStats] = None) -> BudgetReport:
    """Assign every leaf block a rectangle inside ``region``.

    ``subtrees`` (see :func:`block_subtrees`) supplies the composed
    〈Γ, a_m, a_t〉 of each split's children; the root's own annotation
    is never requested.  The returned report carries the leaf boxes
    and the violation accounting used by the cost model; the boxes
    always tile ``region`` exactly.  Every node is expanded once, so
    ``stats.layout_nodes_expanded`` grows by the token count.

    ``max(a, b)`` and ``min(a, b)`` are spelled ``b if b > a else a``
    and ``b if b < a else a``, which is what the builtins return, ties
    included.
    """
    tokens = tuple(expr.tokens)
    starts = slice_starts(tokens)
    annotation = subtrees.annotation
    boxes: Dict[int, Box] = {}
    centers: Dict[int, Tuple[float, float]] = {}
    target: List[float] = []
    minimum: List[float] = []
    macro: List[float] = []
    repairs = 0
    stack = [(0, len(tokens), region.x, region.y, region.w, region.h)]
    pop, push = stack.pop, stack.append
    while stack:
        lo, hi, x, y, w, h = pop()
        if hi - lo == 1:
            index = tokens[lo]
            block = blocks[index]
            points = block.curve.points     # empty: fits any box
            if points:
                fit_w, fit_h = w + 1e-9, h + 1e-9
                for pw, ph in points:
                    if pw <= fit_w and ph <= fit_h:
                        break
                else:
                    # Relative shortfall of the best curve point.
                    best = 1e18
                    for pw, ph in points:
                        dw, dh = pw - w, ph - h
                        shortfall = ((dw if dw > 0.0 else 0.0)
                                     * (ph if ph > 1.0 else 1.0)
                                     + (dh if dh > 0.0 else 0.0)
                                     * (pw if pw > 1.0 else 1.0))
                        ref = pw * ph
                        ratio = shortfall / (1e-12 if 1e-12 > ref else ref)
                        best = ratio if ratio < best else best
                    macro.append(4.0 if 4.0 < best else best)
            area = w * h
            area_target = block.area_target
            if area < area_target - 1e-9:
                area_min = block.area_min
                if area >= area_min - 1e-9:
                    # Yielded target slack only (a_t > area >= 0).
                    target.append((area_target - area) / area_target)
                else:
                    if area_target > 0:
                        share = (area_target - area_min) / area_target
                        if share:
                            target.append(share)
                    if area_min > 0:
                        minimum.append((area_min - area) / area_min)
            boxes[index] = (x, y, w, h)
            centers[index] = (x + w / 2.0, y + h / 2.0)
            continue

        split = starts[hi - 2]
        left = annotation(tokens, lo, split, starts)
        right = annotation(tokens, split, hi - 1, starts)
        horizontal_split = tokens[hi - 1] != H  # V cut -> side by side
        left_target = left[2]
        total_target = left_target + right[2]
        if 1e-12 > total_target:
            total_target = 1e-12
        # The minimum side a subtree needs across the fixed dimension:
        # 0 without macros, inf when no curve point fits.  Points run
        # strictly width-ascending and height-descending, so for a V
        # cut the first point low enough is the narrowest, and for an
        # H cut the last point narrow enough is the lowest.
        if horizontal_split:
            span, across = w, h
            fit = across + 1e-9
            points = left[0].points
            left_min = _INF if points else 0.0
            for pw, ph in points:
                if ph <= fit:
                    left_min = pw
                    break
            points = right[0].points
            right_min = _INF if points else 0.0
            for pw, ph in points:
                if ph <= fit:
                    right_min = pw
                    break
        else:
            span, across = h, w
            fit = across + 1e-9
            points = left[0].points
            left_min = _INF if points else 0.0
            for pw, ph in reversed(points):
                if pw <= fit:
                    left_min = ph
                    break
            points = right[0].points
            right_min = _INF if points else 0.0
            for pw, ph in reversed(points):
                if pw <= fit:
                    right_min = ph
                    break

        left_share = span * left_target / total_target
        if left_min + right_min > span + 1e-9:
            # Even yielding all sibling area cannot fit both macro sets:
            # split proportionally to the minimum needs and charge the
            # relative overflow as a macro violation.  A subtree that
            # fits at no width reports an infinite need; cap it at the
            # span so the proportional split stays finite.
            overflow = ((left_min + right_min - span)
                        / (1e-12 if 1e-12 > span else span))
            macro.append(4.0 if 4.0 < overflow else overflow)
            repairs += 1
            lm = span if span < left_min else left_min
            rm = span if span < right_min else right_min
            denom = lm + rm
            left_share = span * (lm / (1e-12 if 1e-12 > denom else denom))
        else:
            high = span - right_min
            clamped = left_min if left_min > left_share else left_share
            if high < clamped:
                clamped = high
            if abs(clamped - left_share) > 1e-12:
                repairs += 1
            left_share = clamped

        # Guard float noise: shares live in [0, span] exactly.
        if 0.0 > left_share:
            left_share = 0.0
        if span < left_share:
            left_share = span
        right_share = span - left_share
        if 0.0 > right_share:
            right_share = 0.0
        if horizontal_split:
            push((split, hi - 1, x + left_share, y, right_share, h))
            push((lo, split, x, y, left_share, h))
        else:
            push((split, hi - 1, x, y + left_share, w, right_share))
            push((lo, split, x, y, w, left_share))

    if stats is not None:
        stats.layout_nodes_expanded += len(tokens)
    return BudgetReport(sum(target), sum(minimum), sum(macro), repairs,
                        leaf_centers=centers, leaf_boxes=boxes)
