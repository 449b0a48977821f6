"""Corner placement of single-macro blocks.

When recursion reaches a block holding exactly one macro, the macro "is
fixed in the corner of the available area that minimizes wirelength"
(Algorithm 2, line 11).  The candidate set is the four corners of the
block rectangle, in both footprint rotations when they fit; the cost is
the affinity-weighted Manhattan distance to the block's dataflow
neighbours.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect

Attraction = Tuple[Point, float]        # (neighbour position, affinity)


def corner_candidates(region: Rect, w: float, h: float) -> List[Rect]:
    """Rectangles of a w-by-h macro pushed into each region corner.

    When the macro exceeds the region (illegal but possible while the
    penalty system explores), it is centered instead so downstream
    geometry remains meaningful.
    """
    if w > region.w + 1e-9 or h > region.h + 1e-9:
        cx = region.x + (region.w - w) / 2.0
        cy = region.y + (region.h - h) / 2.0
        return [Rect(cx, cy, w, h)]
    return [
        Rect(region.x, region.y, w, h),
        Rect(region.x2 - w, region.y, w, h),
        Rect(region.x2 - w, region.y2 - h, w, h),
        Rect(region.x, region.y2 - h, w, h),
    ]


def place_single_macro(region: Rect, macro_w: float, macro_h: float,
                       attractions: Sequence[Attraction]
                       ) -> Tuple[Rect, Orientation]:
    """Choose corner and rotation minimizing attraction-weighted distance.

    Returns the placed rectangle and the base orientation (N, or E when
    the footprint is rotated); the flipping post-pass refines within the
    footprint-preserving group afterwards.
    """
    options: List[Tuple[Rect, Orientation]] = [
        (rect, Orientation.N)
        for rect in corner_candidates(region, macro_w, macro_h)]
    if abs(macro_w - macro_h) > 1e-12:
        options.extend(
            (rect, Orientation.E)
            for rect in corner_candidates(region, macro_h, macro_w))
    # Never pick an out-of-region option when a contained one exists.
    contained = [(rect, orient) for rect, orient in options
                 if region.contains_rect(rect, tol=1e-6)]
    if contained:
        options = contained

    def cost(rect: Rect) -> float:
        center = rect.center
        if not attractions:
            # No dataflow: prefer staying near the region center.
            return center.manhattan(region.center)
        return sum(a * center.manhattan(p) for p, a in attractions)

    best: Optional[Tuple[Rect, Orientation]] = None
    best_cost = float("inf")
    for rect, orient in options:
        c = cost(rect)
        if c < best_cost - 1e-12:
            best, best_cost = (rect, orient), c
    return best
