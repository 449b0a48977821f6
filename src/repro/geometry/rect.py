"""Axis-aligned rectangles and points.

All floorplan geometry uses a lower-left origin: a :class:`Rect` is the
half-open region ``[x, x + w) x [y, y + h)``.  Coordinates are floats in
abstract "site" units; the evaluation layer decides the physical scale.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A point in the plane."""

    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle anchored at its lower-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"rectangle sides must be non-negative: {self}")

    # -- basic queries ----------------------------------------------------

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> Point:
        return Point(self.x + self.w / 2.0, self.y + self.h / 2.0)

    def contains_point(self, p: Point, tol: float = 0.0) -> bool:
        """Whether ``p`` lies inside (or within ``tol`` of) the rectangle."""
        return (self.x - tol <= p.x <= self.x2 + tol
                and self.y - tol <= p.y <= self.y2 + tol)

    def contains_rect(self, other: "Rect", tol: float = 1e-9) -> bool:
        """Whether ``other`` lies fully inside this rectangle."""
        return (other.x >= self.x - tol and other.y >= self.y - tol
                and other.x2 <= self.x2 + tol and other.y2 <= self.y2 + tol)

    def overlaps(self, other: "Rect", tol: float = 1e-9) -> bool:
        """Whether the open interiors of the two rectangles intersect.

        Degenerate (zero-area) rectangles have empty interiors and never
        overlap anything.
        """
        if min(self.w, self.h, other.w, other.h) <= tol:
            return False
        return (self.x < other.x2 - tol and other.x < self.x2 - tol
                and self.y < other.y2 - tol and other.y < self.y2 - tol)

    def intersection(self, other: "Rect") -> "Rect":
        """The overlap region (possibly empty, reported as a 0-area rect)."""
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        return Rect(x, y, max(0.0, x2 - x), max(0.0, y2 - y))


def total_overlap_area(rects) -> float:
    """Sum of pairwise overlap areas; zero for a legal placement."""
    rects = list(rects)
    total = 0.0
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a.overlaps(b):
                total += a.intersection(b).area
    return total
