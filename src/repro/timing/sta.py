"""Placement-aware static timing analysis on Gseq.

Each Gseq edge is one clock-cycle path.  Endpoint positions come from
the placed design: macros at their center, register arrays at the mean
position of their flop clusters, ports at their pad location.  Slack is
measured per edge against a design-specific clock period; WNS is the
worst slack (reported as a percentage of the period, negative = failing)
and TNS accumulates negative slack over all failing endpoints,
mirroring the paper's Table III columns.

:func:`analyze_timing` runs the levelized batched NumPy kernel
(:mod:`repro.metrics`) over compiled
:class:`~repro.metrics.timing_kernel.TimingArrays`;
:func:`analyze_timing_reference` keeps the original per-edge loop as the
``python`` oracle.  Both return bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.result import MacroPlacement
from repro.geometry.rect import Point
from repro.hiergraph.gseq import Gseq, SeqNode
from repro.netlist.flatten import FlatDesign
from repro.placement.stdcell import CellPlacement
from repro.timing.delay import DelayModel


@dataclass
class TimingReport:
    """Timing summary for one placed design."""

    clock_period: float
    wns: float                    # worst slack (negative = violation)
    tns: float                    # total negative slack (<= 0)
    n_paths: int
    n_failing: int
    worst_edge: Optional[Tuple[str, str]] = None

    @property
    def wns_percent(self) -> float:
        """WNS as a percentage of the clock period (paper's WNS%).

        Positive slack reports as 0.0, matching the paper's convention
        of showing met timing as zero.
        """
        return 100.0 * min(self.wns, 0.0) / self.clock_period

    def __repr__(self) -> str:
        return (f"TimingReport(T={self.clock_period:.2f}, "
                f"WNS={self.wns_percent:+.1f}%, TNS={self.tns:.1f}, "
                f"{self.n_failing}/{self.n_paths} failing)")


def _node_position(node: SeqNode, flat: FlatDesign,
                   placement: MacroPlacement, cells: CellPlacement,
                   port_positions: Dict[str, Point]) -> Optional[Point]:
    if node.is_macro:
        placed = placement.macros.get(node.cells[0])
        return placed.rect.center if placed else None
    if node.is_port:
        return port_positions.get(node.name)
    xs: List[float] = []
    ys: List[float] = []
    for cell_index in node.cells:
        pos = cells.cell_pos(cell_index)
        if pos is not None:
            xs.append(pos.x)
            ys.append(pos.y)
    if not xs:
        return None
    return Point(sum(xs) / len(xs), sum(ys) / len(ys))


def default_clock_period(die_w: float, die_h: float,
                         model: Optional[DelayModel] = None) -> float:
    """A flow-independent clock period for a die of the given size.

    Calibrated so a path crossing ~30% of the die half-perimeter meets
    timing exactly: good floorplans close timing, bad ones go negative —
    the regime the paper's circuits sit in.
    """
    model = model or DelayModel()
    reachable = 0.30 * (die_w + die_h)
    return model.path_delay(reachable)


def analyze_timing(flat: FlatDesign, gseq: Gseq,
                   placement: MacroPlacement, cells: CellPlacement,
                   port_positions: Dict[str, Point],
                   clock_period: Optional[float] = None,
                   model: Optional[DelayModel] = None,
                   backend=None) -> TimingReport:
    """Evaluate every Gseq edge against the clock period.

    Runs the NumPy kernel; ``backend`` lets tests substitute another
    :class:`~repro.metrics.RefereeBackend` instance (the python
    oracle).
    """
    from repro.metrics import NumpyBackend

    model = model or DelayModel()
    if clock_period is None:
        clock_period = default_clock_period(placement.die.w,
                                            placement.die.h, model)
    return (backend or NumpyBackend()).timing(flat, gseq, placement,
                                              cells, port_positions,
                                              clock_period, model)


def analyze_timing_reference(flat: FlatDesign, gseq: Gseq,
                             placement: MacroPlacement,
                             cells: CellPlacement,
                             port_positions: Dict[str, Point],
                             clock_period: Optional[float] = None,
                             model: Optional[DelayModel] = None
                             ) -> TimingReport:
    """The per-edge reference loop (the python oracle's kernel)."""
    model = model or DelayModel()
    if clock_period is None:
        clock_period = default_clock_period(placement.die.w,
                                            placement.die.h, model)

    positions: List[Optional[Point]] = [
        _node_position(node, flat, placement, cells, port_positions)
        for node in gseq.nodes]

    wns = float("inf")
    tns = 0.0
    n_paths = 0
    n_failing = 0
    worst_edge: Optional[Tuple[str, str]] = None
    for (u, v), _bits in gseq.edge_bits.items():
        pu, pv = positions[u], positions[v]
        if pu is None or pv is None:
            continue
        delay = model.path_delay(pu.manhattan(pv))
        slack = clock_period - delay
        n_paths += 1
        if slack < wns:
            wns = slack
            worst_edge = (gseq.nodes[u].name, gseq.nodes[v].name)
        if slack < 0:
            n_failing += 1
            tns += slack
    if n_paths == 0:
        wns = 0.0
    return TimingReport(clock_period=clock_period, wns=wns, tns=tns,
                        n_paths=n_paths, n_failing=n_failing,
                        worst_edge=worst_edge)
