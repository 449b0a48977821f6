"""Top-down area-budgeted layout generation (paper Sect. IV-E).

Unlike bottom-up shape-curve packing, the available rectangle is treated
as a *budget*: the layout always consumes exactly the assigned area.  At
every slicing-tree node the rectangle is split according to the target
areas (a_t) of the two subtrees; when the resulting child rectangle
cannot hold its subtree's macros (checked against the composed shape
curve Γ), area is moved from the sibling, and the move is penalized by
the kind of area the sibling yielded — target slack (cheapest), minimum
area, or macro area (infeasible, most severe).

The expansion walks the Polish expression's token slices (a subtree is
the slice ``tokens[lo:hi]``, see :mod:`repro.slicing.tree`), splits each
at the right-operand start that one
:func:`~repro.slicing.tree.slice_starts` pass found, and asks a
:class:`~repro.slicing.tree.SubtreeCache` for the children's 〈Γ, a_m,
a_t〉 at each split; the root's own curve is never needed.  Leaf
rectangles and per-node deficit contributions are appended to flat
lists in pre-order (node, left, right) and each deficit is folded with
one ``sum`` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.floorplan.blocks import Block
from repro.geometry.rect import Rect
from repro.shapecurve.curve import MAX_POINTS, ShapeCurve
from repro.slicing.polish import H, PolishExpression, Token
from repro.slicing.tree import EvalStats, SubtreeCache, slice_starts


@dataclass
class BudgetReport:
    """Violation accounting for one budgeted layout.

    All deficits are relative (fraction of the respective area), so the
    penalty is scale-free.
    """

    target_deficit: float = 0.0    # a_t violated, a_m still met
    min_deficit: float = 0.0       # a_m violated
    macro_deficit: float = 0.0     # macros do not fit (relative shortfall)
    repairs: int = 0               # how many sibling area moves happened
    leaf_rects: Dict[int, Rect] = field(default_factory=dict)
    #: ``block -> (cx, cy)`` rectangle centers, recorded during the
    #: expansion so the cost model's distance term does not recompute
    #: them.  Values equal ``leaf_rects[b].center``.
    leaf_centers: Dict[int, Tuple[float, float]] = field(
        default_factory=dict)

    @property
    def is_legal(self) -> bool:
        return self.macro_deficit <= 1e-9 and self.min_deficit <= 1e-9


class _Flat:
    """The pre-order accumulator of one expansion."""

    __slots__ = ("rects", "centers", "target", "minimum", "macro",
                 "repairs")

    def __init__(self) -> None:
        self.rects: Dict[int, Rect] = {}
        self.centers: Dict[int, Tuple[float, float]] = {}
        self.target: List[float] = []
        self.minimum: List[float] = []
        self.macro: List[float] = []
        self.repairs = 0


def block_subtrees(blocks: List[Block], limit: int = MAX_POINTS,
                   stats: Optional[EvalStats] = None) -> SubtreeCache:
    """A :class:`SubtreeCache` over ``blocks``' curves and a_m / a_t."""
    return SubtreeCache([b.curve for b in blocks], limit,
                        area_min=[b.area_min for b in blocks],
                        area_target=[b.area_target for b in blocks],
                        stats=stats)


def _min_side(curve: ShapeCurve, across: float, horizontal_split: bool
              ) -> float:
    """Minimum width (or height) a subtree needs given the other side.

    ``across`` is the fixed perpendicular dimension; for a vertical cut
    we ask the subtree's composed curve for the minimum width at height
    ``across`` and vice versa.  Returns 0 when the subtree holds no
    macros and ``inf`` when not even the most elongated curve point
    fits.
    """
    if curve.is_trivial:
        return 0.0
    if horizontal_split:
        needed = curve.min_width_for_height(across)
    else:
        needed = curve.min_height_for_width(across)
    return float("inf") if needed is None else needed


def _area_violation(area_min: float, area_target: float, got_area: float
                    ) -> Tuple[float, float]:
    """Classify a shrunken block's area against its a_t / a_m.

    Returns ``(target_contrib, min_contrib)``.
    """
    if got_area >= area_target - 1e-9:
        return 0.0, 0.0
    if got_area >= area_min - 1e-9:
        if area_target > 0:
            return ((area_target - got_area) / area_target, 0.0)
        return 0.0, 0.0
    target = 0.0
    minimum = 0.0
    if area_target > 0:
        target = (area_target - area_min) / area_target
    if area_min > 0:
        minimum = (area_min - got_area) / area_min
    return target, minimum


def _leaf(index: int, rect: Rect, blocks: List[Block], out: _Flat
          ) -> None:
    block = blocks[index]
    if not block.curve.feasible(rect.w, rect.h):
        # Relative shortfall of the best curve point vs the rect.
        best = 1e18
        for pw, ph in block.curve.points:
            shortfall = (max(0.0, pw - rect.w) * max(1.0, ph)
                         + max(0.0, ph - rect.h) * max(1.0, pw))
            ref = max(pw * ph, 1e-12)
            best = min(best, shortfall / ref)
        if block.curve.is_trivial:
            best = 0.0
        out.macro.append(min(best, 4.0))
    target, minimum = _area_violation(block.area_min, block.area_target,
                                      rect.area)
    if target:
        out.target.append(target)
    if minimum:
        out.minimum.append(minimum)
    out.rects[index] = rect
    out.centers[index] = (rect.x + rect.w / 2.0, rect.y + rect.h / 2.0)


def _expand(tokens: Tuple[Token, ...], starts: List[int], lo: int, hi: int,
            rect: Rect, blocks: List[Block], subtrees: SubtreeCache,
            out: _Flat, stats: EvalStats) -> None:
    """Expand the subtree ``tokens[lo:hi]`` into ``rect``, appending to
    ``out``.

    ``starts`` is :func:`~repro.slicing.tree.slice_starts` of
    ``tokens``: the right operand begins at ``starts[hi - 2]``.
    """
    stats.layout_nodes_expanded += 1
    if hi - lo == 1:
        _leaf(tokens[lo], rect, blocks, out)
        return

    split = starts[hi - 2]
    left_curve, _, left_target = subtrees.annotation(tokens, lo, split)
    right_curve, _, right_target = subtrees.annotation(tokens, split, hi - 1)
    horizontal_split = tokens[hi - 1] != H  # V cut -> side by side
    total_target = max(left_target + right_target, 1e-12)
    if horizontal_split:
        span, across = rect.w, rect.h
    else:
        span, across = rect.h, rect.w

    left_share = span * left_target / total_target
    left_min = _min_side(left_curve, across, horizontal_split)
    right_min = _min_side(right_curve, across, horizontal_split)

    if left_min + right_min > span + 1e-9:
        # Even yielding all sibling area cannot fit both macro sets:
        # split proportionally to the minimum needs and charge the
        # relative overflow as a macro violation.  A subtree that
        # fits at no width reports an infinite need; cap it at the
        # span so the proportional split stays finite.
        overflow = (left_min + right_min - span) / max(span, 1e-12)
        out.macro.append(min(overflow, 4.0))
        out.repairs += 1
        lm = min(left_min, span)
        rm = min(right_min, span)
        denom = max(lm + rm, 1e-12)
        left_share = span * (lm / denom)
    else:
        low = left_min
        high = span - right_min
        clamped = min(max(left_share, low), high)
        if abs(clamped - left_share) > 1e-12:
            out.repairs += 1
        left_share = clamped

    # Guard float noise: shares live in [0, span] exactly.
    left_share = min(max(left_share, 0.0), span)
    right_share = max(span - left_share, 0.0)
    if horizontal_split:
        left_rect = Rect(rect.x, rect.y, left_share, rect.h)
        right_rect = Rect(rect.x + left_share, rect.y, right_share, rect.h)
    else:
        left_rect = Rect(rect.x, rect.y, rect.w, left_share)
        right_rect = Rect(rect.x, rect.y + left_share, rect.w, right_share)

    _expand(tokens, starts, lo, split, left_rect, blocks, subtrees, out,
            stats)
    _expand(tokens, starts, split, hi - 1, right_rect, blocks, subtrees,
            out, stats)


def budgeted_layout(expr: PolishExpression, region: Rect,
                    blocks: List[Block], subtrees: SubtreeCache,
                    stats: Optional[EvalStats] = None) -> BudgetReport:
    """Assign every leaf block a rectangle inside ``region``.

    ``subtrees`` (see :func:`block_subtrees`) supplies the composed
    〈Γ, a_m, a_t〉 of each split's children; the root's own annotation
    is never requested.  The returned report carries the leaf rectangles
    and the violation accounting used by the cost model; rectangles
    always tile ``region`` exactly.  Each expanded node counts into
    ``stats.layout_nodes_expanded``.
    """
    tokens = tuple(expr.tokens)
    out = _Flat()
    _expand(tokens, slice_starts(tokens), 0, len(tokens), region, blocks,
            subtrees, out, stats if stats is not None else EvalStats())
    return BudgetReport(
        target_deficit=sum(out.target),
        min_deficit=sum(out.minimum),
        macro_deficit=sum(out.macro),
        repairs=out.repairs,
        leaf_rects=out.rects,
        leaf_centers=out.centers)
