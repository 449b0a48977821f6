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
a_t〉 at each split; the root's own curve is never needed.  The
expansion of one subtree depends only on its slice and the rectangle it
receives, so sub-layouts are memoizable: a memo keyed by ``(slice,
rect)`` lets the annealing engine reuse the budgeted layout of every
subtree a perturbation did not touch.  Violation accounting is kept as
per-node contribution sequences and folded left-to-right in depth-first
order at the end, so memoized and full evaluation produce bit-identical
deficits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.floorplan.blocks import Block
from repro.geometry.rect import Rect
from repro.memo import BoundedStore
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
    #: ``block -> (cx, cy)`` rectangle centers, carried from the cached
    #: sub-layouts so the cost model's distance term does not recompute
    #: them per evaluation.  Values equal ``leaf_rects[b].center``.
    leaf_centers: Dict[int, Tuple[float, float]] = field(
        default_factory=dict)

    @property
    def is_legal(self) -> bool:
        return self.macro_deficit <= 1e-9 and self.min_deficit <= 1e-9


@dataclass(frozen=True)
class SubLayout:
    """The budgeted expansion of one subtree inside one rectangle.

    ``rects`` lists ``(block, rect)`` pairs and the ``*_contribs``
    tuples list per-node deficit contributions, both in depth-first
    (parent, left, right) order — the exact order the historical
    recursive accumulator produced them in, which is what keeps cached
    folds bit-identical to full evaluation.  ``centers`` caches each
    leaf rectangle's ``(block, cx, cy)`` center so repeated cost
    evaluations (and the distance kernel) never recompute it.
    """

    rects: Tuple[Tuple[int, Rect], ...]
    centers: Tuple[Tuple[int, float, float], ...]
    target_contribs: Tuple[float, ...]
    min_contribs: Tuple[float, ...]
    macro_contribs: Tuple[float, ...]
    repairs: int


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


def _leaf_layout(index: int, rect: Rect, blocks: List[Block]) -> SubLayout:
    block = blocks[index]
    macro = ()
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
        macro = (min(best, 4.0),)
    target, minimum = _area_violation(block.area_min, block.area_target,
                                      rect.area)
    return SubLayout(
        rects=((index, rect),),
        centers=((index, rect.x + rect.w / 2.0, rect.y + rect.h / 2.0),),
        target_contribs=(target,) if target else (),
        min_contribs=(minimum,) if minimum else (),
        macro_contribs=macro,
        repairs=0)


def _expand(tokens: Tuple[Token, ...], starts: List[int], lo: int, hi: int,
            rect: Rect, blocks: List[Block], subtrees: SubtreeCache,
            memo: Optional[BoundedStore], stats: EvalStats) -> SubLayout:
    """Expand the subtree ``tokens[lo:hi]`` into ``rect``, memoized.

    ``starts`` is :func:`~repro.slicing.tree.slice_starts` of
    ``tokens``: the right operand begins at ``starts[hi - 2]``.
    """
    if memo is not None:
        key = (tokens[lo:hi], rect.x, rect.y, rect.w, rect.h)
        cached = memo.get(key)
        if cached is not None:
            return cached
    stats.layout_nodes_expanded += 1

    if hi - lo == 1:
        sub = _leaf_layout(tokens[lo], rect, blocks)
    else:
        split = starts[hi - 2]
        left_curve, _, left_target = subtrees.annotation(tokens, lo, split)
        right_curve, _, right_target = subtrees.annotation(
            tokens, split, hi - 1)
        horizontal_split = tokens[hi - 1] != H  # V cut -> side by side
        total_target = max(left_target + right_target, 1e-12)
        if horizontal_split:
            span, across = rect.w, rect.h
        else:
            span, across = rect.h, rect.w

        left_share = span * left_target / total_target
        left_min = _min_side(left_curve, across, horizontal_split)
        right_min = _min_side(right_curve, across, horizontal_split)

        own_macro: Tuple[float, ...] = ()
        repairs = 0
        if left_min + right_min > span + 1e-9:
            # Even yielding all sibling area cannot fit both macro sets:
            # split proportionally to the minimum needs and charge the
            # relative overflow as a macro violation.  A subtree that
            # fits at no width reports an infinite need; cap it at the
            # span so the proportional split stays finite.
            overflow = (left_min + right_min - span) / max(span, 1e-12)
            own_macro = (min(overflow, 4.0),)
            repairs = 1
            lm = min(left_min, span)
            rm = min(right_min, span)
            denom = max(lm + rm, 1e-12)
            left_share = span * (lm / denom)
        else:
            low = left_min
            high = span - right_min
            clamped = min(max(left_share, low), high)
            if abs(clamped - left_share) > 1e-12:
                repairs = 1
            left_share = clamped

        # Guard float noise: shares live in [0, span] exactly.
        left_share = min(max(left_share, 0.0), span)
        right_share = max(span - left_share, 0.0)
        if horizontal_split:
            left_rect = Rect(rect.x, rect.y, left_share, rect.h)
            right_rect = Rect(rect.x + left_share, rect.y,
                              right_share, rect.h)
        else:
            left_rect = Rect(rect.x, rect.y, rect.w, left_share)
            right_rect = Rect(rect.x, rect.y + left_share,
                              rect.w, right_share)

        left = _expand(tokens, starts, lo, split, left_rect, blocks,
                       subtrees, memo, stats)
        right = _expand(tokens, starts, split, hi - 1, right_rect, blocks,
                        subtrees, memo, stats)
        sub = SubLayout(
            rects=left.rects + right.rects,
            centers=left.centers + right.centers,
            target_contribs=left.target_contribs + right.target_contribs,
            min_contribs=left.min_contribs + right.min_contribs,
            macro_contribs=(own_macro + left.macro_contribs
                            + right.macro_contribs),
            repairs=repairs + left.repairs + right.repairs)

    if memo is not None:
        memo.put(key, sub)
    return sub


def budgeted_layout(expr: PolishExpression, region: Rect,
                    blocks: List[Block], subtrees: SubtreeCache,
                    memo: Optional[BoundedStore] = None,
                    stats: Optional[EvalStats] = None) -> BudgetReport:
    """Assign every leaf block a rectangle inside ``region``.

    ``subtrees`` (see :func:`block_subtrees`) supplies the composed
    〈Γ, a_m, a_t〉 of each split's children; the root's own annotation
    is never requested.  The returned report carries the leaf rectangles
    and the violation accounting used by the cost model; rectangles
    always tile ``region`` exactly.  Each expanded node counts into
    ``stats.layout_nodes_expanded``.

    With a ``memo`` (a :class:`~repro.memo.BoundedStore` kept for one
    evaluation context), unchanged subtrees reuse their previous
    expansion; the report is bit-identical to the unmemoized one
    (``sum`` folds the contributions left-to-right in depth-first order,
    the historical accumulation order).
    """
    tokens = tuple(expr.tokens)
    sub = _expand(tokens, slice_starts(tokens), 0, len(tokens), region,
                  blocks, subtrees, memo,
                  stats if stats is not None else EvalStats())
    return BudgetReport(
        target_deficit=sum(sub.target_contribs),
        min_deficit=sum(sub.min_contribs),
        macro_deficit=sum(sub.macro_contribs),
        repairs=sub.repairs,
        leaf_rects=dict(sub.rects),
        leaf_centers={block: (cx, cy)
                      for block, cx, cy in sub.centers})
