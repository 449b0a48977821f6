"""Standard-cell placement: the metric-extraction substrate.

The paper measures floorplans *after standard-cell placement with the
same commercial tool* for every flow.  This package reproduces that
referee: standard cells are clustered (register arrays and per-module
combinational groups), placed by quadratic (conjugate-gradient) global
placement with macros as fixed anchors, then spread out of overfull
bins and macro blockages by grid diffusion.  Wirelength is bit-level
HPWL over the flat netlist.
"""

from repro.placement.cluster import (
    Cluster,
    ClusteredNetlist,
    cluster_cells,
    clustered_for,
)
from repro.placement.hpwl import hpwl_report, HpwlReport
from repro.placement.stdcell import CellPlacement, place_cells

__all__ = [
    "CellPlacement",
    "Cluster",
    "ClusteredNetlist",
    "HpwlReport",
    "cluster_cells",
    "clustered_for",
    "hpwl_report",
    "place_cells",
]
