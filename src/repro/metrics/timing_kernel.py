"""Levelized batched timing kernel over compiled Gseq edge arrays.

The reference STA (:func:`repro.timing.sta.analyze_timing_reference`)
walks ``Gseq.edge_bits`` with a Python loop: locate both endpoints,
evaluate the linear delay model, fold the slack into WNS/TNS.  A
:class:`TimingArrays` record lowers the sequential graph once — edge
endpoint columns in the reference visit order, a CSR view of every
register array's member cells, and a topological levelization of the
graph (Kahn's algorithm; nodes trapped in cycles collect in one final
level) — so the kernel can propagate arrival times level by level with
one batched gather per level instead of one Python iteration per edge.

Every Gseq edge crosses exactly one register boundary, so arrival
propagation degenerates to a single delay evaluation per edge; the
levelization is the batching structure (and the seam for multi-cycle
extensions), not a semantic change.  Bit-identity discipline:

* register-array positions are per-cell means accumulated with
  ``np.add.at`` (unbuffered, sequential — exactly the reference's
  ``sum(xs) / len(xs)``);
* the delay expression replicates the reference IEEE evaluation order
  elementwise;
* WNS uses first-minimum tie-breaking (``np.argmin``) like the
  reference's strict ``<`` update, and TNS reduces sequentially
  (``np.add.accumulate``) in the reference edge visit order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import MacroPlacement
    from repro.geometry.rect import Point
    from repro.hiergraph.gseq import Gseq
    from repro.netlist.flatten import FlatDesign
    from repro.placement.stdcell import CellPlacement
    from repro.timing.delay import DelayModel

#: Node-row kinds (``TimingArrays.node_kind``).
NODE_REG = 0
NODE_MACRO = 1
NODE_PORT = 2


@dataclass(frozen=True)
class TimingArrays:
    """Array-compiled view of one sequential graph.

    ``edge_u``/``edge_v`` follow the ``Gseq.edge_bits`` iteration order
    (the reference visit order every sequential reduction replays).
    ``node_cells``/``cell_offsets`` give register nodes their flat
    member cells; ``macro_cell`` holds the flat cell index of macro
    nodes (-1 elsewhere).  ``level_edges`` groups edge indices by the
    topological level of the source node; ``n_levels`` counts the
    levels (cycle-trapped nodes share the final one).
    """

    n_nodes: int
    n_edges: int
    n_cells: int
    edge_u: np.ndarray                  # (n_edges,) int64
    edge_v: np.ndarray                  # (n_edges,) int64
    node_kind: np.ndarray               # (n_nodes,) int8
    macro_cell: np.ndarray              # (n_nodes,) int64, -1 = not a macro
    cell_offsets: np.ndarray            # (n_nodes + 1,) int64
    node_cells: np.ndarray              # (sum cells,) int64 flat indices
    node_of_cell_row: np.ndarray        # (sum cells,) int64
    node_names: Tuple[str, ...]
    node_level: np.ndarray              # (n_nodes,) int64
    level_edges: Tuple[np.ndarray, ...]

    @property
    def n_levels(self) -> int:
        return len(self.level_edges)

    def __repr__(self) -> str:
        return (f"TimingArrays({self.n_nodes} nodes, {self.n_edges} edges, "
                f"{self.n_levels} levels)")


def _levelize(n_nodes: int, succ, pred) -> np.ndarray:
    """Topological levels (Kahn); cycle members land one past the end."""
    indegree = np.array([len(p) for p in pred], dtype=np.int64)
    level = np.zeros(n_nodes, dtype=np.int64)
    queue = deque(int(i) for i in np.flatnonzero(indegree == 0))
    seen = 0
    while queue:
        node = queue.popleft()
        seen += 1
        for target in succ[node]:
            level[target] = max(level[target], level[node] + 1)
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    if seen < n_nodes:
        # Nodes still carrying in-degree sit on a cycle: park them (and
        # therefore their outgoing edges) in one final shared level.
        trapped = indegree > 0
        level[trapped] = (int(level[~trapped].max()) + 1
                          if (~trapped).any() else 0)
    return level


def compile_timing_arrays(gseq: "Gseq",
                          flat: "FlatDesign") -> TimingArrays:
    """Lower ``gseq`` into :class:`TimingArrays` (one pass)."""
    from repro.hiergraph.gseq import SeqKind

    n_nodes = gseq.n_nodes
    node_kind = np.zeros(n_nodes, dtype=np.int8)
    macro_cell = np.full(n_nodes, -1, dtype=np.int64)
    cell_offsets = [0]
    node_cells: list = []
    node_of_cell_row: list = []
    names = []
    for node in gseq.nodes:
        names.append(node.name)
        if node.kind is SeqKind.MACRO:
            node_kind[node.index] = NODE_MACRO
            if node.cells:
                macro_cell[node.index] = node.cells[0]
        elif node.kind is SeqKind.PORT:
            node_kind[node.index] = NODE_PORT
        else:
            node_cells.extend(node.cells)
            node_of_cell_row.extend([node.index] * len(node.cells))
        cell_offsets.append(len(node_cells))

    edge_u = np.fromiter((u for u, _v in gseq.edge_bits),
                         dtype=np.int64, count=gseq.n_edges)
    edge_v = np.fromiter((v for _u, v in gseq.edge_bits),
                         dtype=np.int64, count=gseq.n_edges)

    node_level = _levelize(n_nodes, gseq.succ, gseq.pred)
    if edge_u.size:
        edge_level = node_level[edge_u]
        level_edges = tuple(
            np.flatnonzero(edge_level == lv)
            for lv in range(int(edge_level.max()) + 1))
    else:
        level_edges = ()

    return TimingArrays(
        n_nodes=n_nodes,
        n_edges=gseq.n_edges,
        n_cells=len(flat.cells),
        edge_u=edge_u,
        edge_v=edge_v,
        node_kind=node_kind,
        macro_cell=macro_cell,
        cell_offsets=np.asarray(cell_offsets, dtype=np.int64),
        node_cells=np.asarray(node_cells, dtype=np.int64),
        node_of_cell_row=np.asarray(node_of_cell_row, dtype=np.int64),
        node_names=tuple(names),
        node_level=node_level,
        level_edges=level_edges)


def timing_arrays_for(gseq: "Gseq", flat: "FlatDesign") -> TimingArrays:
    """Compiled arrays for ``gseq``, built once and cached on it.

    The ``prepare.timing_arrays`` span fires only on an actual compile
    — a cache hit (including arrays unpickled from a compiled-design
    store entry) records nothing.
    """
    from repro.obs import current_tracer

    fingerprint = (gseq.n_nodes, gseq.n_edges, len(flat.cells))
    cached = getattr(gseq, "_timing_arrays", None)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    with current_tracer().span("prepare.timing_arrays",
                               design=flat.top.name):
        arrays = compile_timing_arrays(gseq, flat)
    gseq._timing_arrays = (fingerprint, arrays)
    return arrays


def _node_coordinates(arrays: TimingArrays, placement: "MacroPlacement",
                      cells: "CellPlacement",
                      port_positions: Dict[str, "Point"]):
    """(x, y, located) per Gseq node, bit-identical to the reference."""
    n = arrays.n_nodes
    x = np.zeros(n)
    y = np.zeros(n)
    located = np.zeros(n, dtype=bool)

    # Macro and port nodes: a handful each, resolved scalar-side with
    # the exact reference expressions.
    for index in np.flatnonzero(arrays.node_kind == NODE_MACRO).tolist():
        cell_index = int(arrays.macro_cell[index])
        placed = placement.macros.get(cell_index)
        if placed is None:
            continue
        center = placed.rect.center
        located[index] = True
        x[index] = center.x
        y[index] = center.y
    for index in np.flatnonzero(arrays.node_kind == NODE_PORT).tolist():
        pos = port_positions.get(arrays.node_names[index])
        if pos is None:
            continue
        located[index] = True
        x[index] = pos.x
        y[index] = pos.y

    # Register arrays: batched per-cell means.  np.add.at accumulates
    # sequentially in row order — the reference's ``sum(xs)``.
    if arrays.node_cells.size and cells.x.shape[0]:
        cluster = cells.clustered.cell_cluster_array(
            arrays.n_cells)[arrays.node_cells]
        has = cluster >= 0
        rows = arrays.node_of_cell_row[has]
        safe = cluster[has]
        sum_x = np.zeros(n)
        sum_y = np.zeros(n)
        count = np.zeros(n, dtype=np.int64)
        np.add.at(sum_x, rows, cells.x[safe])
        np.add.at(sum_y, rows, cells.y[safe])
        np.add.at(count, rows, 1)
        reg_ok = count > 0
        denom = np.maximum(count, 1)
        x[reg_ok] = (sum_x / denom)[reg_ok]
        y[reg_ok] = (sum_y / denom)[reg_ok]
        located |= reg_ok
    return x, y, located


def timing_report(arrays: TimingArrays, placement: "MacroPlacement",
                  cells: "CellPlacement",
                  port_positions: Dict[str, "Point"],
                  clock_period: float, model: "DelayModel"):
    """The numpy timing kernel: one :class:`~repro.timing.sta.TimingReport`.

    Delays propagate level by level (one batched gather per topological
    level of the compiled graph); the WNS/TNS reductions then replay
    the reference edge visit order.
    """
    from repro.timing.sta import TimingReport

    x, y, located = _node_coordinates(arrays, placement, cells,
                                      port_positions)

    u, v = arrays.edge_u, arrays.edge_v
    slack = np.zeros(arrays.n_edges)
    base = model.clk_to_q + model.logic_delay + model.setup
    for level in arrays.level_edges:
        su, sv = u[level], v[level]
        distance = np.abs(x[su] - x[sv]) + np.abs(y[su] - y[sv])
        arrival = base + model.wire_per_unit * np.maximum(0.0, distance)
        slack[level] = clock_period - arrival

    valid = np.flatnonzero(located[u] & located[v]) if u.size else u
    n_paths = int(valid.size)
    if n_paths == 0:
        return TimingReport(clock_period=clock_period, wns=0.0, tns=0.0,
                            n_paths=0, n_failing=0, worst_edge=None)
    ordered = slack[valid]
    worst = int(valid[np.argmin(ordered)])   # first minimum, like the
    wns = float(ordered.min())               # reference's strict < update
    failing = ordered < 0.0
    n_failing = int(failing.sum())
    tns = _sequential_sum(ordered[failing])
    worst_edge = (arrays.node_names[int(u[worst])],
                  arrays.node_names[int(v[worst])])
    return TimingReport(clock_period=clock_period, wns=wns, tns=tns,
                        n_paths=n_paths, n_failing=n_failing,
                        worst_edge=worst_edge)


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum, bit-identical to a Python ``+=`` loop."""
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])
