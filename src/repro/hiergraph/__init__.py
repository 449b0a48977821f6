"""Circuit abstractions: the hierarchy tree and the three graphs.

The paper (Table I) models the circuit at four granularities:

* ``HT``   — the RTL hierarchy tree (``repro.hiergraph.hierarchy``);
* ``Gnet`` — bit-level netlist connectivity (``repro.hiergraph.gnet``);
* ``Gseq`` — multi-bit sequential connectivity after combinational
  collapse and array clustering (``repro.hiergraph.gseq``);
* ``Gdf``  — block-level dataflow with latency/width histograms
  (``repro.hiergraph.gdf``).

Each is derived from the previous one; all are deterministic functions
of the input design.
"""

from repro.hiergraph.hierarchy import HierNode, HierTree, build_hierarchy
from repro.hiergraph.gnet import Gnet, NodeKind, build_gnet
from repro.hiergraph.histogram import LatencyHistogram
from repro.hiergraph.gseq import Gseq, SeqKind, SeqNode, build_gseq
from repro.hiergraph.gdf import Gdf, GdfEdge, build_gdf

__all__ = [
    "Gdf",
    "GdfEdge",
    "Gnet",
    "Gseq",
    "HierNode",
    "HierTree",
    "LatencyHistogram",
    "NodeKind",
    "SeqKind",
    "SeqNode",
    "build_gdf",
    "build_gnet",
    "build_gseq",
    "build_hierarchy",
]
