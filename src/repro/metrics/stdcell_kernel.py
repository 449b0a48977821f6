"""Batched quadratic stdcell system assembly over compiled CSR arrays.

The quadratic cell placer's reference assembly
(:func:`repro.placement.stdcell._build_system`) is a Python double loop
over the clustered netlist: every collapsed net expands into a bounded
clique of movable-movable spring entries plus fixed-anchor pulls toward
placed macro pins and known chip ports.  :class:`StdcellArrays` lowers
the placement-independent part of that loop once per design — CSR
cluster-endpoint rows, CSR fixed-anchor candidate rows (macro slots
first, then port slots, matching the reference visit order) and the
fully precompiled clique pair template (COO row/col index streams) —
so the per-placement work reduces to array gathers, `np.repeat`
streams and ordered `np.add.at` scatters.

Bit-identity discipline (the same contract as the HPWL / congestion
kernels): every accumulation that the reference performs with a scalar
``+=`` is replayed with ``np.add.at`` over an index stream in the
reference visit order (``np.add.at`` is unbuffered and sequential, so
repeated indices accumulate exactly like the scalar loop), and the COO
triplets handed to ``scipy.sparse.coo_matrix`` are element-for-element
identical to the reference lists.  The assembled Laplacian, right-hand
sides — and therefore the conjugate-gradient solution and every metric
measured on the resulting cell placement — match the reference bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import MacroPlacement
    from repro.geometry.rect import Point
    from repro.netlist.flatten import FlatDesign
    from repro.placement.cluster import ClusteredNetlist

#: Fixed-anchor candidate kinds (``StdcellArrays.fixed_kind``).
FIXED_MACRO = 0
FIXED_PORT = 1


@dataclass(frozen=True)
class StdcellArrays:
    """CSR view of the clustered netlist's quadratic connectivity.

    Net ``n`` owns cluster endpoints ``eps[ep_offsets[n]:ep_offsets[n+1]]``
    (the reference iteration order) and fixed-anchor *candidates*
    ``fixed_kind/fixed_ref[fixed_offsets[n]:fixed_offsets[n+1]]`` —
    macro endpoints first, then port endpoints, exactly as the
    reference builds ``fixed_pts``.  Which candidates materialize
    depends on the placement (unplaced macros and unknown ports drop
    out), so only kinds and slots are compiled here.

    ``pair_rows``/``pair_cols`` are the complete COO index template of
    the movable-movable clique entries: per net with >= 2 cluster
    endpoints, ``(i, j)`` then ``(j, i)`` per unordered pair in
    ``a < b`` order — byte-for-byte the reference append order.
    ``pair_counts[n]`` is that net's entry count (``m * (m - 1)``).
    """

    n_nets: int
    n_clusters: int
    weight: np.ndarray          # (n_nets,) float64 collapsed bit count
    ep_counts: np.ndarray       # (n_nets,) int64 cluster endpoints per net
    ep_offsets: np.ndarray      # (n_nets + 1,) int64
    eps: np.ndarray             # (n_eps,) int64 cluster indices
    fixed_offsets: np.ndarray   # (n_nets + 1,) int64
    fixed_kind: np.ndarray      # (n_fixed,) int8 — FIXED_MACRO / FIXED_PORT
    fixed_ref: np.ndarray       # (n_fixed,) int64 macro/port slot
    macro_cells: np.ndarray     # (n_macro_slots,) int64 flat cell index
    port_names: Tuple[str, ...]
    pair_rows: np.ndarray       # (n_pair_entries,) int64
    pair_cols: np.ndarray       # (n_pair_entries,) int64
    pair_counts: np.ndarray     # (n_nets,) int64 COO entries per net

    def __repr__(self) -> str:
        return (f"StdcellArrays({self.n_nets} nets, {self.eps.size} eps, "
                f"{self.fixed_kind.size} anchors, "
                f"{self.pair_rows.size} pair entries)")


def compile_stdcell_arrays(clustered: "ClusteredNetlist") -> StdcellArrays:
    """Lower ``clustered`` into :class:`StdcellArrays` (one pass)."""
    n_nets = len(clustered.nets)
    weight = np.zeros(n_nets, dtype=np.float64)
    ep_counts = np.zeros(n_nets, dtype=np.int64)

    eps_list: list = []
    ep_offsets = [0]
    fixed_kind: list = []
    fixed_ref: list = []
    fixed_offsets = [0]
    macro_slots: Dict[int, int] = {}
    port_slots: Dict[str, int] = {}

    for index, (cluster_eps, macro_eps, port_eps, bits) in \
            enumerate(clustered.nets):
        weight[index] = bits
        ep_counts[index] = len(cluster_eps)
        eps_list.extend(cluster_eps)
        ep_offsets.append(len(eps_list))
        for cell_index in macro_eps:
            fixed_kind.append(FIXED_MACRO)
            fixed_ref.append(
                macro_slots.setdefault(cell_index, len(macro_slots)))
        for port_name in port_eps:
            fixed_kind.append(FIXED_PORT)
            fixed_ref.append(
                port_slots.setdefault(port_name, len(port_slots)))
        fixed_offsets.append(len(fixed_kind))

    eps = np.asarray(eps_list, dtype=np.int64)
    offsets = np.asarray(ep_offsets, dtype=np.int64)

    # -- clique pair template: group nets by endpoint count -----------------
    pair_counts = np.where(ep_counts >= 2,
                           ep_counts * (ep_counts - 1), 0)
    entry_offsets = np.concatenate(
        [[0], np.cumsum(pair_counts)]).astype(np.int64)
    pair_rows = np.empty(int(entry_offsets[-1]), dtype=np.int64)
    pair_cols = np.empty(int(entry_offsets[-1]), dtype=np.int64)
    for m in np.unique(ep_counts):
        m = int(m)
        if m < 2:
            continue
        nets = np.flatnonzero(ep_counts == m)
        # (G, m) endpoint matrix for this group.
        block = eps[offsets[nets][:, None] + np.arange(m)]
        a_idx, b_idx = np.triu_indices(m, 1)     # reference (a, b) order
        i_ep = block[:, a_idx]                   # (G, P)
        j_ep = block[:, b_idx]
        rows_block = np.empty((len(nets), len(a_idx), 2), dtype=np.int64)
        rows_block[:, :, 0] = i_ep               # add_pair appends (i, j)
        rows_block[:, :, 1] = j_ep
        cols_block = np.empty((len(nets), len(a_idx), 2), dtype=np.int64)
        cols_block[:, :, 0] = j_ep               # ... and cols (j, i)
        cols_block[:, :, 1] = i_ep
        positions = entry_offsets[nets][:, None] + np.arange(2 * len(a_idx))
        pair_rows[positions] = rows_block.reshape(len(nets), -1)
        pair_cols[positions] = cols_block.reshape(len(nets), -1)

    return StdcellArrays(
        n_nets=n_nets,
        n_clusters=clustered.n_clusters,
        weight=weight,
        ep_counts=ep_counts,
        ep_offsets=offsets,
        eps=eps,
        fixed_offsets=np.asarray(fixed_offsets, dtype=np.int64),
        fixed_kind=np.asarray(fixed_kind, dtype=np.int8),
        fixed_ref=np.asarray(fixed_ref, dtype=np.int64),
        macro_cells=np.fromiter(macro_slots.keys(), dtype=np.int64,
                                count=len(macro_slots)),
        port_names=tuple(port_slots),
        pair_rows=pair_rows,
        pair_cols=pair_cols,
        pair_counts=pair_counts.astype(np.int64))


def stdcell_arrays_for(clustered: "ClusteredNetlist") -> StdcellArrays:
    """Compiled arrays for ``clustered``, built once and cached on it.

    The ``prepare.stdcell_arrays`` span fires only on an actual compile
    — a cache hit (including arrays unpickled from a compiled-design
    store entry) records nothing.
    """
    from repro.obs import current_tracer

    cached = getattr(clustered, "_stdcell_arrays", None)
    if cached is not None and cached[0] == len(clustered.nets):
        return cached[1]
    with current_tracer().span("prepare.stdcell_arrays",
                               nets=len(clustered.nets)):
        arrays = compile_stdcell_arrays(clustered)
    clustered._stdcell_arrays = (len(clustered.nets), arrays)
    return arrays


def assemble_quadratic_system(arrays: StdcellArrays,
                              clustered: "ClusteredNetlist",
                              flat: "FlatDesign",
                              placement: "MacroPlacement",
                              port_positions: Dict[str, "Point"]):
    """The numpy stdcell kernel: ``(laplacian, bx, by)`` for one placement.

    Bit-identical to :func:`repro.placement.stdcell._build_system` (see
    the module docstring for the discipline).
    """
    from scipy.sparse import coo_matrix

    from repro.placement.stdcell import _CLIQUE_CAP, REGION_PULL

    n = arrays.n_clusters
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)

    # -- anchor slots: placed macro centers, known port positions ----------
    n_macro = len(arrays.macro_cells)
    macro_x = np.zeros(n_macro)
    macro_y = np.zeros(n_macro)
    macro_ok = np.zeros(n_macro, dtype=bool)
    for slot, cell_index in enumerate(arrays.macro_cells.tolist()):
        placed = placement.macros.get(cell_index)
        if placed is None:
            continue
        center = placed.rect.center
        macro_ok[slot] = True
        macro_x[slot] = center.x
        macro_y[slot] = center.y
    n_port = len(arrays.port_names)
    port_x = np.zeros(n_port)
    port_y = np.zeros(n_port)
    port_ok = np.zeros(n_port, dtype=bool)
    for slot, name in enumerate(arrays.port_names):
        pos = port_positions.get(name)
        if pos is None:
            continue
        port_ok[slot] = True
        port_x[slot] = pos.x
        port_y[slot] = pos.y

    # -- materialized fixed points per net (reference candidate order) -----
    is_macro = arrays.fixed_kind == FIXED_MACRO
    n_cand = arrays.fixed_kind.size
    keep = np.zeros(n_cand, dtype=bool)
    fx_cand = np.zeros(n_cand)
    fy_cand = np.zeros(n_cand)
    slots = arrays.fixed_ref[is_macro]
    keep[is_macro] = macro_ok[slots]
    fx_cand[is_macro] = macro_x[slots]
    fy_cand[is_macro] = macro_y[slots]
    slots = arrays.fixed_ref[~is_macro]
    keep[~is_macro] = port_ok[slots]
    fx_cand[~is_macro] = port_x[slots]
    fy_cand[~is_macro] = port_y[slots]
    fx = fx_cand[keep]
    fy = fy_cand[keep]
    kept_cum = np.concatenate([[0], np.cumsum(keep)])
    f = (kept_cum[arrays.fixed_offsets[1:]]
         - kept_cum[arrays.fixed_offsets[:-1]])    # anchors per net (exact)

    # -- per-net clique weight ---------------------------------------------
    m = arrays.ep_counts
    k = m + f
    w = arrays.weight / np.maximum(1, np.minimum(k, _CLIQUE_CAP) - 1)

    # -- movable-movable COO entries (template indices, -w values) ---------
    vals = -np.repeat(w, arrays.pair_counts)

    # -- diagonal: every endpoint of net n accumulates w[n] exactly
    #    (m - 1 + f) times, nets in order (same per-slot add sequence as
    #    the interleaved reference loop, since all of one net's diagonal
    #    contributions share one w).
    rep_net = np.maximum(m - 1 + f, 0)
    rep_ep = np.repeat(rep_net, m)
    w_ep = np.repeat(w, m)
    np.add.at(diag, np.repeat(arrays.eps, rep_ep), np.repeat(w_ep, rep_ep))

    # -- fixed-anchor pulls: endpoint-major, anchor-minor, nets in order
    #    (the exact reference ``add_fixed`` stream).
    f_ep = np.repeat(f, m)
    idx = np.repeat(arrays.eps, f_ep)
    if idx.size:
        total = idx.size
        block_starts = np.concatenate([[0], np.cumsum(f_ep)])[:-1]
        local = np.arange(total) - np.repeat(block_starts, f_ep)
        anchor_start = np.concatenate([[0], np.cumsum(f)])[:-1]
        anchor = np.repeat(np.repeat(anchor_start, m), f_ep) + local
        w_entry = np.repeat(w_ep, f_ep)
        np.add.at(bx, idx, w_entry * fx[anchor])
        np.add.at(by, idx, w_entry * fy[anchor])

    # -- mild pull toward each cluster's hierarchy block center ------------
    region_centers: Dict[str, "Point"] = {}
    for cluster in clustered.clusters:
        if not cluster.cells:
            continue
        path = flat.cells[cluster.cells[0]].module_path
        center = region_centers.get(path)
        if center is None:
            center = placement.region_of_cell(flat,
                                              cluster.cells[0]).center
            region_centers[path] = center
        pull = REGION_PULL * max(1.0, cluster.area) ** 0.5
        diag[cluster.index] += pull
        bx[cluster.index] += pull * center.x
        by[cluster.index] += pull * center.y

    # -- non-singularity guard for isolated clusters -----------------------
    die_center = placement.die.center
    isolated = diag <= 0
    if isolated.any():
        diag[isolated] += 1e-3
        bx[isolated] += 1e-3 * die_center.x
        by[isolated] += 1e-3 * die_center.y

    laplacian = coo_matrix((vals, (arrays.pair_rows, arrays.pair_cols)),
                           shape=(n, n)).tocsr()
    laplacian.setdiag(diag)
    return laplacian, bx, by
