"""Quadratic global placement with grid-diffusion spreading.

The placer minimizes squared wirelength with fixed anchors (macro pins
and chip ports), the classic analytical formulation: one sparse SPD
system per axis, solved with conjugate gradients.  Net connectivity uses
the bounded-clique model.  The raw quadratic solution collapses into
dense clumps, so a diffusion pass then iteratively pushes area out of
overfull bins — macro bins have zero capacity, which is how a macro
placement's quality propagates into the cell placement and the
wirelength / congestion / timing metrics measured on it.

:func:`place_cells` runs the clique-system assembly (the profiled hot
loop) on the NumPy kernel (:mod:`repro.metrics`), which streams the
compiled :class:`~repro.metrics.stdcell_kernel.StdcellArrays` through
ordered ``np.add.at`` scatters; :func:`_build_system` keeps the
original double loop as the ``python`` oracle.  Both assemble
bit-identical systems, so the solved cell placement is the same under
either; the conjugate-gradient solve and the diffusion pass are
shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy.sparse import coo_matrix

from repro.core.result import MacroPlacement
from repro.geometry.rect import Point, Rect
from repro.netlist.flatten import FlatDesign
from repro.placement.cluster import ClusteredNetlist, clustered_for

#: Nets wider than this endpoint count get a weakened clique weight.
_CLIQUE_CAP = 12

#: Diffusion grid bins per die side.
BINS = 24
#: Diffusion passes at most.
DIFFUSION_ITERS = 48
#: Share of a bin's free area the cells may fill.
TARGET_DENSITY = 0.82
#: Conjugate-gradient relative tolerance and iteration cap.
CG_TOL = 1e-6
CG_MAXITER = 400
#: Weight pulling clusters toward their hierarchy block rectangle
#: center (a mild region constraint reflecting the floorplan).  The
#: numpy kernel reads this same constant.
REGION_PULL = 0.04


@dataclass
class CellPlacement:
    """Placed cluster positions plus lookups used by the metric layers."""

    clustered: ClusteredNetlist
    x: np.ndarray
    y: np.ndarray
    die: Rect

    def cluster_pos(self, cluster_index: int) -> Point:
        return Point(float(self.x[cluster_index]),
                     float(self.y[cluster_index]))

    def cell_pos(self, cell_index: int) -> Optional[Point]:
        cluster = self.clustered.cluster_of_cell.get(cell_index)
        if cluster is None:
            return None
        return self.cluster_pos(cluster)


def _anchor_positions(flat: FlatDesign, placement: MacroPlacement,
                      port_positions: Dict[str, Point]):
    """Fixed positions: macro centers and chip ports."""
    macro_pos: Dict[int, Point] = {
        index: placed.rect.center
        for index, placed in placement.macros.items()}
    return macro_pos, port_positions


def _build_system(clustered: ClusteredNetlist, flat: FlatDesign,
                  placement: MacroPlacement,
                  port_positions: Dict[str, Point]):
    """Assemble the Laplacian and fixed-anchor right-hand sides."""
    n = clustered.n_clusters
    macro_pos, port_pos = _anchor_positions(flat, placement, port_positions)

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)

    def add_pair(i: int, j: int, w: float) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(-w)
        rows.append(j)
        cols.append(i)
        vals.append(-w)
        diag[i] += w
        diag[j] += w

    def add_fixed(i: int, p: Point, w: float) -> None:
        diag[i] += w
        bx[i] += w * p.x
        by[i] += w * p.y

    for cluster_eps, macro_eps, port_eps, weight in clustered.nets:
        fixed_pts = [macro_pos[m] for m in macro_eps if m in macro_pos]
        fixed_pts += [port_pos[p] for p in port_eps if p in port_pos]
        k = len(cluster_eps) + len(fixed_pts)
        if k < 2:
            continue
        w = weight / max(1, min(k, _CLIQUE_CAP) - 1)
        eps = list(cluster_eps)
        for a in range(len(eps)):
            for b in range(a + 1, len(eps)):
                add_pair(eps[a], eps[b], w)
            for p in fixed_pts:
                add_fixed(eps[a], p, w)

    # Mild pull toward each cluster's hierarchy block center.
    for cluster in clustered.clusters:
        if not cluster.cells:
            continue
        region = placement.region_of_cell(flat, cluster.cells[0])
        add_fixed(cluster.index, region.center,
                  REGION_PULL * max(1.0, cluster.area) ** 0.5)

    # Guarantee non-singularity for isolated clusters.
    die_center = placement.die.center
    for i in range(n):
        if diag[i] <= 0:
            add_fixed(i, die_center, 1e-3)

    laplacian = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    laplacian.setdiag(diag)
    return laplacian, bx, by


def solve_quadratic_xy(laplacian, bx: np.ndarray, by: np.ndarray,
                       x0: np.ndarray, y0: np.ndarray, *,
                       rtol: float = CG_TOL, maxiter: int = CG_MAXITER):
    """Solve the x and y quadratic systems with one paired CG loop.

    Both axes share the same SPD Laplacian, so each conjugate-gradient
    iteration streams the sparse matrix once for both right-hand sides
    (a single two-column matvec) instead of twice.  Every per-axis
    quantity — residuals, dot products, alpha/beta, the convergence
    test ``norm(r) < rtol * norm(b)`` — is kept on its own contiguous
    vector, replicating the standard unpreconditioned CG recurrence
    (scipy's ``cg``) operation for operation, and CSR matvec columns
    accumulate in the same order as single matvecs; the solutions are
    therefore bit-identical to two sequential ``scipy`` solves (the
    referee benchmark enforces exactly that).  Once one axis converges
    the loop continues the other with single-column matvecs.
    """
    states = []
    for b, start in ((bx, x0), (by, y0)):
        b = np.asarray(b, dtype=np.float64)
        x = np.array(start, dtype=np.float64, copy=True)
        bnrm2 = np.linalg.norm(b)
        if bnrm2 == 0:
            states.append({"x": b.copy(), "done": True})
            continue
        r = b - laplacian @ x if x.any() else b.copy()
        states.append({"x": x, "r": r, "p": None, "rho_prev": None,
                       "atol": rtol * bnrm2, "done": False})

    pair = np.empty((laplacian.shape[0], 2))
    for iteration in range(maxiter):
        for state in states:
            if not state["done"] \
                    and np.linalg.norm(state["r"]) < state["atol"]:
                state["done"] = True
        active = [state for state in states if not state["done"]]
        if not active:
            break
        for state in active:
            # Unpreconditioned: z is the residual itself.
            rho = np.dot(state["r"], state["r"])
            if state["rho_prev"] is not None:
                state["p"] *= rho / state["rho_prev"]
                state["p"] += state["r"]
            else:
                state["p"] = state["r"].copy()
            state["rho"] = rho
        if len(active) == 2:
            pair[:, 0] = active[0]["p"]
            pair[:, 1] = active[1]["p"]
            product = laplacian @ pair
            qs = (np.ascontiguousarray(product[:, 0]),
                  np.ascontiguousarray(product[:, 1]))
        else:
            qs = (laplacian @ active[0]["p"],)
        for state, q in zip(active, qs):
            alpha = state["rho"] / np.dot(state["p"], q)
            state["x"] += alpha * state["p"]
            state["r"] -= alpha * q
            state["rho_prev"] = state["rho"]
    return states[0]["x"], states[1]["x"]


def _diffuse(clustered: ClusteredNetlist, x: np.ndarray, y: np.ndarray,
             die: Rect, macro_rects: List[Rect]) -> None:
    """Push cluster area out of overfull / blocked bins, in place."""
    bins = BINS
    bw = die.w / bins
    bh = die.h / bins

    capacity = np.full((bins, bins), bw * bh * TARGET_DENSITY)
    for rect in macro_rects:
        i0 = max(0, int((rect.x - die.x) / bw))
        i1 = min(bins - 1, int((rect.x2 - die.x - 1e-9) / bw))
        j0 = max(0, int((rect.y - die.y) / bh))
        j1 = min(bins - 1, int((rect.y2 - die.y - 1e-9) / bh))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                cell_bin = Rect(die.x + i * bw, die.y + j * bh, bw, bh)
                free = cell_bin.area - cell_bin.intersection(rect).area
                capacity[i, j] = min(capacity[i, j],
                                     free * TARGET_DENSITY)

    areas = np.array([c.area for c in clustered.clusters])
    n = len(areas)
    for _ in range(DIFFUSION_ITERS):
        np.clip(x, die.x + 1e-6, die.x2 - 1e-6, out=x)
        np.clip(y, die.y + 1e-6, die.y2 - 1e-6, out=y)
        bi = np.minimum(((x - die.x) / bw).astype(int), bins - 1)
        bj = np.minimum(((y - die.y) / bh).astype(int), bins - 1)
        usage = np.zeros((bins, bins))
        np.add.at(usage, (bi, bj), areas)
        over = usage - capacity
        if over.max() <= 0:
            break
        # Gradient of overflow -> displacement field per bin.
        pressure = np.maximum(over, 0.0) / (capacity + 1e-9)
        gx = np.zeros_like(pressure)
        gy = np.zeros_like(pressure)
        gx[:-1, :] += pressure[1:, :] - pressure[:-1, :]
        gx[1:, :] += pressure[1:, :] - pressure[:-1, :]
        gy[:, :-1] += pressure[:, 1:] - pressure[:, :-1]
        gy[:, 1:] += pressure[:, 1:] - pressure[:, :-1]
        # Clusters in overfull bins move down-gradient plus jitterless
        # deterministic tie-break by index parity.
        step = 0.5 * max(bw, bh)
        move = pressure[bi, bj] > 0
        x[move] -= np.sign(gx[bi, bj][move]) * step
        y[move] -= np.sign(gy[bi, bj][move]) * step
    np.clip(x, die.x + 1e-6, die.x2 - 1e-6, out=x)
    np.clip(y, die.y + 1e-6, die.y2 - 1e-6, out=y)


def place_cells(flat: FlatDesign, placement: MacroPlacement,
                port_positions: Dict[str, Point],
                clustered: Optional[ClusteredNetlist] = None,
                backend=None) -> CellPlacement:
    """Place standard-cell clusters given a macro placement.

    ``clustered`` defaults to the per-design cache
    (:func:`repro.placement.cluster.clustered_for`), so repeated referee
    evaluations share one clustering.  The NumPy kernel assembles the
    quadratic system; ``backend`` lets tests substitute another
    :class:`~repro.metrics.RefereeBackend` instance (the python
    oracle).
    """
    from repro.metrics import NumpyBackend

    clustered = clustered if clustered is not None else clustered_for(flat)
    n = clustered.n_clusters
    die = placement.die
    if n == 0:
        return CellPlacement(clustered, np.zeros(0), np.zeros(0), die)

    laplacian, bx, by = (backend or NumpyBackend()).stdcell_system(
        flat, placement, port_positions, clustered)
    x0 = np.full(n, die.center.x)
    y0 = np.full(n, die.center.y)
    x, y = solve_quadratic_xy(laplacian, bx, by, x0, y0)

    _diffuse(clustered, x, y, die,
             [m.rect for m in placement.macros.values()])
    return CellPlacement(clustered, x, y, die)
