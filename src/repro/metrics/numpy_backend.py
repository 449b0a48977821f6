"""Batched NumPy referee kernels over compiled :class:`NetArrays`.

Each kernel is engineered to be *bit-identical* to its Python
reference loop, not merely close:

* elementwise arithmetic replicates the reference IEEE expressions
  (same operands, same order), so every per-net term matches
  exactly;
* scalar accumulators are replaced by ``cumsum`` (``np.add.accumulate``),
  which reduces sequentially in the reference visit order — unlike
  ``np.sum``'s pairwise tree — so totals match bit for bit;
* congestion demand weights are exact binary fractions (halves), so
  scatter-order differences cannot round.

That property is what lets these kernels score every row without
perturbing annealing trajectories or historical table rows;
``tests/test_metrics_equivalence.py`` enforces it against the python
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.backends import RefereeBackend
from repro.metrics.netarrays import locate_endpoints, net_arrays_for

def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum, bit-identical to a Python ``+=`` loop."""
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


class NumpyBackend(RefereeBackend):
    """Array-compiled referee: batched stdcell assembly, segmented HPWL,
    rasterized congestion, levelized timing."""

    name = "numpy"
    uses_net_arrays = True

    # -- quadratic stdcell system -------------------------------------------

    def stdcell_system(self, flat, placement, port_positions, clustered):
        from repro.metrics.stdcell_kernel import (
            assemble_quadratic_system,
            stdcell_arrays_for,
        )

        return assemble_quadratic_system(stdcell_arrays_for(clustered),
                                         clustered, flat, placement,
                                         port_positions)

    # -- timing -------------------------------------------------------------

    def timing(self, flat, gseq, placement, cells, port_positions,
               clock_period, model):
        from repro.metrics.timing_kernel import (
            timing_arrays_for,
            timing_report,
        )

        return timing_report(timing_arrays_for(gseq, flat), placement,
                             cells, port_positions, clock_period, model)

    # -- HPWL ---------------------------------------------------------------

    def hpwl(self, flat, placement, cells, port_positions, arrays=None,
             coords=None):
        from repro.placement.hpwl import HpwlReport

        arrays = arrays if arrays is not None else net_arrays_for(flat)
        if arrays.n_nets == 0:
            return HpwlReport(total_units=0.0, n_nets=0,
                              macro_net_units=0.0)
        x, y, located, macro_located = (
            coords if coords is not None
            else locate_endpoints(arrays, placement, cells,
                                  port_positions))

        # One sentinel row keeps every CSR offset a valid reduceat
        # index (degenerate trailing nets have offset == n_rows); the
        # sentinel is the reduction identity for each column.
        starts = arrays.net_offsets[:-1]
        x_min = np.minimum.reduceat(
            np.append(np.where(located, x, np.inf), np.inf), starts)
        x_max = np.maximum.reduceat(
            np.append(np.where(located, x, -np.inf), -np.inf), starts)
        y_min = np.minimum.reduceat(
            np.append(np.where(located, y, np.inf), np.inf), starts)
        y_max = np.maximum.reduceat(
            np.append(np.where(located, y, -np.inf), -np.inf), starts)
        counts = np.add.reduceat(
            np.append(located, False).astype(np.int64), starts)
        macro_hits = np.add.reduceat(
            np.append(macro_located, False).astype(np.int64), starts)

        # reduceat maps an empty CSR span to the element at its start
        # offset; such nets have zero *own* rows, so their located
        # count can only see a neighbouring row — always < 2, and the
        # validity mask drops them (the degenerate-net guard).
        spans = np.diff(arrays.net_offsets)
        valid = (counts >= 2) & (spans > 0)
        with np.errstate(invalid="ignore"):
            lengths = (x_max - x_min) + (y_max - y_min)
        total = _sequential_sum(lengths[valid])
        macro_total = _sequential_sum(lengths[valid & (macro_hits > 0)])
        return HpwlReport(total_units=total, n_nets=int(valid.sum()),
                          macro_net_units=macro_total)

    # -- congestion ---------------------------------------------------------

    def congestion(self, flat, placement, cells, port_positions,
                   bins=32, arrays=None, coords=None):
        from repro.routing.congestion import congestion_report_from
        from repro.routing.grid import RoutingGrid

        arrays = arrays if arrays is not None else net_arrays_for(flat)
        grid = RoutingGrid.build(placement.die,
                                 (m.rect for m in placement.macros.values()),
                                 bins=bins)
        x, y, located, _ = (
            coords if coords is not None
            else locate_endpoints(arrays, placement, cells,
                                  port_positions))
        x = x[located]
        y = y[located]
        net = arrays.net_of_row[located]
        if x.size:
            # The reference chains each net's points in (x, y) order;
            # lexsort by (net, x, y), then every consecutive same-net
            # pair is one 2-pin chain segment.
            order = np.lexsort((y, x, net))
            x, y, net = x[order], y[order], net[order]
            same = net[1:] == net[:-1]
            grid.add_l_routes(x[:-1][same], y[:-1][same],
                              x[1:][same], y[1:][same], weight=1.0)
        return congestion_report_from(grid)
