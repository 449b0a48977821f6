"""The G-cell grid: capacities and demand accumulation.

Capacity models routing tracks per G-cell edge-length; macros block a
large fraction of the tracks above them (they leave a thin over-the-
macro porosity, as real blocks do for upper metal layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geometry.rect import Rect

#: Routing tracks per site unit of G-cell span, per direction.
#: Calibrated so the suite's GRC% lands in the paper's 1-40% regime.
TRACKS_PER_UNIT = 34.0
#: Fraction of capacity surviving above a macro.
MACRO_POROSITY = 0.15


@dataclass
class RoutingGrid:
    """Demand/capacity rasters over a ``bins`` x ``bins`` grid."""

    die: Rect
    bins: int
    capacity_h: np.ndarray      # horizontal track capacity per g-cell
    capacity_v: np.ndarray
    demand_h: np.ndarray
    demand_v: np.ndarray

    @classmethod
    def build(cls, die: Rect, macro_rects: Iterable[Rect],
              bins: int = 32) -> "RoutingGrid":
        """Build capacities, rasterizing macro blockages vectorized.

        The per-cell arithmetic replicates the historical
        ``Rect.intersection`` expressions exactly and multiplies keep
        factors macro-by-macro in iteration order, so capacities are
        bit-identical to the original per-cell loop.
        """
        bw = die.w / bins
        bh = die.h / bins
        cap_h = np.full((bins, bins), TRACKS_PER_UNIT * bh)
        cap_v = np.full((bins, bins), TRACKS_PER_UNIT * bw)
        gx = die.x + np.arange(bins) * bw      # g-cell lower-left corners
        gy = die.y + np.arange(bins) * bh
        gcell_area = bw * bh
        for rect in macro_rects:
            i0 = max(0, int((rect.x - die.x) / bw))
            i1 = min(bins - 1, int((rect.x2 - die.x - 1e-9) / bw))
            j0 = max(0, int((rect.y - die.y) / bh))
            j1 = min(bins - 1, int((rect.y2 - die.y - 1e-9) / bh))
            if i1 < i0 or j1 < j0:
                continue
            cx = gx[i0:i1 + 1]
            cy = gy[j0:j1 + 1]
            iw = np.maximum(0.0, np.minimum(cx + bw, rect.x2)
                            - np.maximum(cx, rect.x))
            ih = np.maximum(0.0, np.minimum(cy + bh, rect.y2)
                            - np.maximum(cy, rect.y))
            blocked = np.outer(iw, ih) / gcell_area
            keep = 1.0 - blocked * (1.0 - MACRO_POROSITY)
            cap_h[i0:i1 + 1, j0:j1 + 1] *= keep
            cap_v[i0:i1 + 1, j0:j1 + 1] *= keep
        zeros = np.zeros((bins, bins))
        return cls(die=die, bins=bins, capacity_h=cap_h, capacity_v=cap_v,
                   demand_h=zeros.copy(), demand_v=zeros.copy())

    # -- coordinate helpers ---------------------------------------------------

    def bin_of(self, x: float, y: float):
        i = int((x - self.die.x) / (self.die.w / self.bins))
        j = int((y - self.die.y) / (self.die.h / self.bins))
        return (min(max(i, 0), self.bins - 1),
                min(max(j, 0), self.bins - 1))

    def bins_of(self, x: np.ndarray, y: np.ndarray):
        """Vectorized :meth:`bin_of` (truncation + clamp, like ``int()``)."""
        i = ((x - self.die.x) / (self.die.w / self.bins)).astype(np.int64)
        j = ((y - self.die.y) / (self.die.h / self.bins)).astype(np.int64)
        return (np.clip(i, 0, self.bins - 1),
                np.clip(j, 0, self.bins - 1))

    # -- demand ----------------------------------------------------------------

    def add_horizontal(self, j: int, i0: int, i1: int,
                       weight: float) -> None:
        if i1 < i0:
            i0, i1 = i1, i0
        self.demand_h[i0:i1 + 1, j] += weight

    def add_vertical(self, i: int, j0: int, j1: int, weight: float) -> None:
        if j1 < j0:
            j0, j1 = j1, j0
        self.demand_v[i, j0:j1 + 1] += weight

    def add_l_route(self, x0: float, y0: float, x1: float, y1: float,
                    weight: float) -> None:
        """Spread ``weight`` demand over the two L routes of a 2-pin net."""
        i0, j0 = self.bin_of(x0, y0)
        i1, j1 = self.bin_of(x1, y1)
        if i0 == i1 and j0 == j1:
            return
        half = weight / 2.0
        # Lower-L: horizontal at j0 then vertical at i1.
        self.add_horizontal(j0, i0, i1, half)
        self.add_vertical(i1, j0, j1, half)
        # Upper-L: vertical at i0 then horizontal at j1.
        self.add_vertical(i0, j0, j1, half)
        self.add_horizontal(j1, i0, i1, half)

    def add_l_routes(self, x0: np.ndarray, y0: np.ndarray,
                     x1: np.ndarray, y1: np.ndarray,
                     weight: float = 1.0) -> None:
        """Vectorized :meth:`add_l_route` over parallel segment arrays.

        Every segment's two L routes are rasterized with the
        difference-array trick: span endpoints are scattered into
        ``(bins + 1, bins)`` delta rasters and a prefix sum along the
        span axis recovers the demand.  Same-bin segments add nothing,
        exactly like the scalar method.  All contributions are halves
        of ``weight``; with the default integral weight they are exact
        binary fractions, so the accumulated raster is bit-identical
        to scalar segment-by-segment addition.
        """
        i0, j0 = self.bins_of(x0, y0)
        i1, j1 = self.bins_of(x1, y1)
        moved = ~((i0 == i1) & (j0 == j1))
        if not moved.any():
            return
        i0, j0, i1, j1 = i0[moved], j0[moved], i1[moved], j1[moved]
        half = weight / 2.0
        bins = self.bins

        lo_i = np.minimum(i0, i1)
        hi_i = np.maximum(i0, i1)
        delta_h = np.zeros((bins + 1, bins))
        # Lower-L horizontal at j0, upper-L horizontal at j1.
        np.add.at(delta_h, (lo_i, j0), half)
        np.add.at(delta_h, (hi_i + 1, j0), -half)
        np.add.at(delta_h, (lo_i, j1), half)
        np.add.at(delta_h, (hi_i + 1, j1), -half)
        self.demand_h += np.cumsum(delta_h, axis=0)[:bins]

        lo_j = np.minimum(j0, j1)
        hi_j = np.maximum(j0, j1)
        delta_v = np.zeros((bins, bins + 1))
        # Lower-L vertical at i1, upper-L vertical at i0.
        np.add.at(delta_v, (i1, lo_j), half)
        np.add.at(delta_v, (i1, hi_j + 1), -half)
        np.add.at(delta_v, (i0, lo_j), half)
        np.add.at(delta_v, (i0, hi_j + 1), -half)
        self.demand_v += np.cumsum(delta_v, axis=1)[:, :bins]

    # -- metrics -----------------------------------------------------------------

    def overflow_total(self) -> float:
        over_h = np.maximum(self.demand_h - self.capacity_h, 0.0)
        over_v = np.maximum(self.demand_v - self.capacity_v, 0.0)
        return float(over_h.sum() + over_v.sum())

    def capacity_total(self) -> float:
        return float(self.capacity_h.sum() + self.capacity_v.sum())

    def overflowed_gcell_fraction(self) -> float:
        over = ((self.demand_h > self.capacity_h)
                | (self.demand_v > self.capacity_v))
        return float(over.mean())
