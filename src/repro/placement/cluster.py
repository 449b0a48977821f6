"""Standard-cell clustering for global placement.

Placing every bit cell individually is needless for floorplan metrics;
cells are grouped into physically-coherent clusters: one per register
array (the Gseq clusters) and one per chunk of combinational cells
within a module.  Cluster connectivity is the flat netlist projected
onto clusters, with parallel bit nets collapsed into weighted edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hiergraph.arrays import array_base
from repro.netlist.flatten import FlatDesign

#: Combinational cells per cluster chunk.
COMB_CHUNK = 24


@dataclass
class Cluster:
    """A movable group of standard cells."""

    index: int
    name: str
    cells: List[int] = field(default_factory=list)
    area: float = 0.0
    module_path: str = ""


@dataclass
class ClusteredNetlist:
    """Clusters plus their projected connectivity.

    ``nets`` are (cluster endpoints, macro endpoints, port endpoints,
    weight) tuples: a collapsed group of identical-endpoint bit nets
    with weight = bit count.
    """

    clusters: List[Cluster]
    cluster_of_cell: Dict[int, int]
    nets: List[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[str, ...], int]]
    #: Dense ``cell index -> cluster index`` array (lazy; see
    #: :meth:`cell_cluster_array`).
    _cell_cluster: Optional[Tuple[int, "object"]] = field(
        default=None, repr=False, compare=False)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def total_area(self) -> float:
        return sum(c.area for c in self.clusters)

    def cell_cluster_array(self, n_cells: int):
        """``cluster_of_cell`` as a dense int64 array (-1 = unclustered).

        Array kernels gather cluster coordinates per flat cell; building
        the dense map from the dict once per netlist (not once per
        metric call) keeps that gather cheap.  Cached per ``n_cells``.
        """
        import numpy as np

        cached = self._cell_cluster
        if cached is not None and cached[0] == n_cells:
            return cached[1]
        dense = np.full(n_cells, -1, dtype=np.int64)
        for cell_index, cluster in self.cluster_of_cell.items():
            if 0 <= cell_index < n_cells:
                dense[cell_index] = cluster
        self._cell_cluster = (n_cells, dense)
        return dense


def cluster_cells(flat: FlatDesign) -> ClusteredNetlist:
    """Group standard cells into clusters and project the netlist."""
    clusters: List[Cluster] = []
    cluster_of_cell: Dict[int, int] = {}

    def new_cluster(name: str, module_path: str) -> Cluster:
        cluster = Cluster(len(clusters), name, module_path=module_path)
        clusters.append(cluster)
        return cluster

    # Register arrays cluster by (module, base name); combinational
    # cells chunk per module.
    reg_clusters: Dict[Tuple[str, str], Cluster] = {}
    comb_open: Dict[str, Cluster] = {}
    for cell in flat.cells:
        if cell.is_macro:
            continue
        if cell.is_flop:
            base, _ = array_base(cell.local_name)
            key = (cell.module_path, base)
            cluster = reg_clusters.get(key)
            if cluster is None:
                cluster = new_cluster(f"{cell.module_path}:{base}",
                                      cell.module_path)
                reg_clusters[key] = cluster
        else:
            cluster = comb_open.get(cell.module_path)
            if cluster is None or len(cluster.cells) >= COMB_CHUNK:
                suffix = 0 if cluster is None else len(cluster.cells)
                cluster = new_cluster(
                    f"{cell.module_path}:comb{cell.index}",
                    cell.module_path)
                comb_open[cell.module_path] = cluster
        cluster.cells.append(cell.index)
        cluster.area += cell.ctype.area
        cluster_of_cell[cell.index] = cluster.index

    # Project nets onto clusters; collapse identical endpoint sets.
    collapsed: Dict[Tuple, int] = {}
    for net in flat.nets:
        cluster_eps = set()
        macro_eps = set()
        for cell_index, _pin, _bit in net.endpoints:
            if cell_index in cluster_of_cell:
                cluster_eps.add(cluster_of_cell[cell_index])
            else:
                macro_eps.add(cell_index)
        port_eps = {name for name, _bit in net.top_ports}
        if len(cluster_eps) + len(macro_eps) + len(port_eps) < 2:
            continue
        if not cluster_eps and not macro_eps:
            continue
        key = (tuple(sorted(cluster_eps)), tuple(sorted(macro_eps)),
               tuple(sorted(port_eps)))
        collapsed[key] = collapsed.get(key, 0) + 1

    nets = [(c, m, p, w) for (c, m, p), w in sorted(collapsed.items())]
    return ClusteredNetlist(clusters=clusters,
                            cluster_of_cell=cluster_of_cell, nets=nets)


def clustered_for(flat: FlatDesign) -> ClusteredNetlist:
    """The clustered netlist for ``flat``, built once and cached on it.

    Clustering is a pure function of the flat netlist (no placement, no
    RNG), so every referee evaluation of the same design can share one
    :class:`ClusteredNetlist` — the same sharing discipline as
    :func:`repro.metrics.net_arrays_for`, and the same staleness check
    (:func:`~repro.metrics.netarrays.flat_fingerprint`): the cache is
    invalidated when the design's cell, net or endpoint counts change;
    deeper mutations require dropping ``flat._clustered`` manually.
    """
    # Imported here: repro.metrics imports this module.
    from repro.metrics.netarrays import flat_fingerprint

    fingerprint = flat_fingerprint(flat)
    cached = getattr(flat, "_clustered", None)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    clustered = cluster_cells(flat)
    flat._clustered = (fingerprint, clustered)
    return clustered
