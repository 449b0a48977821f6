"""Pareto shape curves and their slicing composition.

A :class:`ShapeCurve` stores the minimal bounding boxes able to hold some
placement of a set of macros (Fig. 4b of the paper).  Points are kept
sorted by increasing width / decreasing height and pruned to the Pareto
front.  The *empty* curve represents a block with no macros: every box,
however small, is feasible for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.memo import DEFAULT_MAX_ENTRIES, BoundedStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.slicing.tree import EvalStats

Pointwh = Tuple[float, float]

#: Curves are downsampled to this many points after composition so that
#: repeated composition up a deep tree stays cheap.
MAX_POINTS = 48


def _pareto_prune(points: Iterable[Pointwh]) -> List[Pointwh]:
    """Keep only non-dominated (w, h) points, sorted by width.

    Point ``a`` dominates ``b`` when ``a.w <= b.w`` and ``a.h <= b.h``.
    """
    return _sweep(sorted(set((float(w), float(h)) for w, h in points)))


def _sweep(pts: List[Pointwh]) -> List[Pointwh]:
    """The Pareto front of width-sorted, de-duplicated float points.

    A point survives when it is lower than every narrower survivor by
    more than a 1e-12 tolerance.
    """
    front: List[Pointwh] = []
    best_h = float("inf")
    for w, h in pts:
        if h < best_h - 1e-12:
            front.append((w, h))
            best_h = h
    return front


def _downsample(points: List[Pointwh], limit: int) -> List[Pointwh]:
    """Thin a Pareto front to exactly ``limit`` distinct points.

    Both extremes (widest-flattest and narrowest-tallest) are always
    kept.  Index selection is de-duplicated and topped up so the result
    has ``min(limit, len(points))`` points — the naive ``round(i*step)``
    sampling can pick the same index twice on small fronts and silently
    drop knee points.
    """
    n = len(points)
    if n <= limit:
        return points
    if limit <= 1:
        return [points[0]]
    step = (n - 1) / (limit - 1)
    chosen = {round(i * step) for i in range(limit)}
    chosen.add(0)
    chosen.add(n - 1)
    # Rounding collisions leave fewer than ``limit`` indices; fill the
    # gaps with the smallest unused indices (deterministic, keeps the
    # result a width-sorted subset of an already-Pareto front).
    fill = 0
    while len(chosen) < limit:
        if fill not in chosen:
            chosen.add(fill)
        fill += 1
    return [points[i] for i in sorted(chosen)]


class ShapeCurve:
    """An immutable Pareto front of feasible bounding boxes.

    Parameters
    ----------
    points:
        Candidate ``(width, height)`` boxes; dominated points are pruned.
        An empty iterable yields the *trivial* curve (no macro constraint).
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[Pointwh] = ()):
        self._points: Tuple[Pointwh, ...] = tuple(_pareto_prune(points))

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "ShapeCurve":
        """Curve of a macro-free block: any box is feasible."""
        return cls(())

    @classmethod
    def for_rect(cls, w: float, h: float,
                 rotatable: bool = True) -> "ShapeCurve":
        """Curve of a single rigid macro (optionally 90-degree rotatable)."""
        pts = [(w, h)]
        if rotatable and abs(w - h) > 1e-12:
            pts.append((h, w))
        return cls(pts)

    # -- queries -----------------------------------------------------------

    @property
    def points(self) -> Tuple[Pointwh, ...]:
        return self._points

    @property
    def is_trivial(self) -> bool:
        return not self._points

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShapeCurve) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        if self.is_trivial:
            return "ShapeCurve(trivial)"
        pts = ", ".join(f"({w:.3g},{h:.3g})" for w, h in self._points[:4])
        more = "..." if len(self._points) > 4 else ""
        return f"ShapeCurve([{pts}{more}])"

    def feasible(self, w: float, h: float, tol: float = 1e-9) -> bool:
        """Whether a ``w`` x ``h`` box can hold the macros of this block."""
        if self.is_trivial:
            return True
        for pw, ph in self._points:
            if pw <= w + tol and ph <= h + tol:
                return True
        return False

    def min_height_for_width(self, w: float,
                             tol: float = 1e-9) -> Optional[float]:
        """Smallest feasible height for a box of width ``w`` (None if none)."""
        if self.is_trivial:
            return 0.0
        best: Optional[float] = None
        for pw, ph in self._points:
            if pw <= w + tol and (best is None or ph < best):
                best = ph
        return best

    def min_width_for_height(self, h: float,
                             tol: float = 1e-9) -> Optional[float]:
        """Smallest feasible width for a box of height ``h`` (None if none)."""
        if self.is_trivial:
            return 0.0
        best: Optional[float] = None
        for pw, ph in self._points:
            if ph <= h + tol and (best is None or pw < best):
                best = pw
        return best

    @property
    def min_area(self) -> float:
        """Area of the smallest-area point on the curve."""
        if self.is_trivial:
            return 0.0
        return min(w * h for w, h in self._points)

    # -- transforms --------------------------------------------------------

    def with_rotations(self) -> "ShapeCurve":
        """Union of this curve and its transpose."""
        if self.is_trivial:
            return self
        pts = list(self._points) + [(h, w) for w, h in self._points]
        return ShapeCurve(pts)

    def inflated(self, factor: float) -> "ShapeCurve":
        """Scale both sides of every point by ``sqrt(factor)``.

        Useful for adding whitespace headroom around macro layouts.
        """
        if factor < 0:
            raise ValueError("inflation factor must be non-negative")
        s = factor ** 0.5
        return ShapeCurve((w * s, h * s) for w, h in self._points)

    # -- composition -------------------------------------------------------

    def compose_horizontal(self, other: "ShapeCurve",
                           limit: int = MAX_POINTS) -> "ShapeCurve":
        """Curve of two blocks placed side by side (a vertical cut).

        Widths add, heights take the max.  Trivial curves are identity
        elements: glue blocks do not constrain the macro layout.

        Stockmeyer's merge walks both fronts from their narrow ends and
        advances the side with the larger height (both on a tie), the
        only step that can lower the combined height, until that side
        runs out.  Its O(n + m) candidates dominate all n * m pairwise
        sums, so the tolerance sweep keeps the same points.
        """
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        a, b = self._points, other._points
        i = j = 0
        pts = []
        while True:
            (w1, h1), (w2, h2) = a[i], b[j]
            pts.append((w1 + w2, h2 if h2 > h1 else h1))  # max(h1, h2)
            if (h1 >= h2 and i == len(a) - 1
                    or h2 >= h1 and j == len(b) - 1):
                break
            i += h1 >= h2
            j += h2 >= h1
        return ShapeCurve._composed(pts, limit)

    def compose_vertical(self, other: "ShapeCurve",
                         limit: int = MAX_POINTS) -> "ShapeCurve":
        """Curve of two blocks stacked (a horizontal cut).

        Heights add, widths take the max.  The transposed merge: both
        fronts are walked from their wide ends, stepping back on the
        side with the larger width (both on a tie).
        """
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        a, b = self._points, other._points
        i, j = len(a) - 1, len(b) - 1
        pts = []
        while True:
            (w1, h1), (w2, h2) = a[i], b[j]
            pts.append((w2 if w2 > w1 else w1, h1 + h2))  # max(w1, w2)
            if w1 >= w2 and i == 0 or w2 >= w1 and j == 0:
                break
            i -= w1 >= w2
            j -= w2 >= w1
        return ShapeCurve._composed(pts, limit)

    @classmethod
    def _composed(cls, pts: List[Pointwh], limit: int) -> "ShapeCurve":
        """The thinned front of float composition candidates."""
        curve = cls.__new__(cls)
        curve._points = tuple(_downsample(_sweep(sorted(set(pts))), limit))
        return curve


class ComposeCache:
    """Memo for pairwise curve composition.

    Curves are immutable and hashable, so a composition is fully
    determined by the operand point tuples, the cut direction and the
    downsampling limit; a hit returns the exact ``ShapeCurve`` object an
    uncached composition would have produced, and a miss pays one
    linear front merge (:meth:`ShapeCurve.compose_horizontal` /
    :meth:`ShapeCurve.compose_vertical`).  Each
    :class:`~repro.slicing.tree.SubtreeCache` composes through its own
    cache, so re-evaluating a perturbed slicing tree only recomposes
    the curves along the perturbed root path.  Hits and misses count
    into ``stats`` (an :class:`~repro.slicing.tree.EvalStats`).
    Bounded by a :class:`repro.memo.BoundedStore`.
    """

    __slots__ = ("stats", "_store")

    def __init__(self, stats: "EvalStats",
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        self.stats = stats
        self._store = BoundedStore(max_entries)

    def __len__(self) -> int:
        return len(self._store)

    def compose(self, left: ShapeCurve, right: ShapeCurve,
                horizontal: bool, limit: int = MAX_POINTS) -> ShapeCurve:
        """``left ⊕ right`` with the given cut direction, memoized.

        ``horizontal=True`` composes side by side (a vertical cut line,
        matching :meth:`ShapeCurve.compose_horizontal`).
        """
        key = (left._points, right._points, horizontal, limit)
        cached = self._store.get(key)
        if cached is not None:
            self.stats.curve_compose_hits += 1
            return cached
        self.stats.curve_compose_misses += 1
        if horizontal:
            curve = left.compose_horizontal(right, limit)
        else:
            curve = left.compose_vertical(right, limit)
        self._store.put(key, curve)
        return curve


def compose_many(curves: Sequence[ShapeCurve], horizontal: bool) -> ShapeCurve:
    """Fold a sequence of curves with a single cut direction."""
    result = ShapeCurve.trivial()
    for curve in curves:
        if horizontal:
            result = result.compose_horizontal(curve)
        else:
            result = result.compose_vertical(curve)
    return result
