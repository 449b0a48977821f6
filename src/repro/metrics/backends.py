"""The referee kernel interface and its python oracle.

The referee's five evaluation kernels — the quadratic stdcell system
assembly, HPWL, congestion, the levelized timing analysis and the
affinity-pair distance term — sit behind one small interface,
:class:`RefereeBackend`, with two implementations:

* :class:`PythonBackend` — the reference per-net loops the repo started
  with, kept as the equivalence oracle for tests and ``make
  bench-referee``;
* :class:`~repro.metrics.numpy_backend.NumpyBackend` — batched array
  kernels over the compiled
  :class:`~repro.metrics.netarrays.NetArrays`, which score every row.

Both produce bit-identical metric values: the NumPy kernels replicate
the reference IEEE expressions elementwise and reduce with sequential
accumulation (``cumsum``) in the reference visit order.  The referee
entry points (``evaluate_placement``, ``place_cells``, ``hpwl_report``,
``estimate_congestion``, ``analyze_timing``) run the NumPy kernels; a
``backend`` parameter taking a :class:`RefereeBackend` instance lets
tests put the oracle in their place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import MacroPlacement
    from repro.geometry.rect import Point
    from repro.hiergraph.gseq import Gseq
    from repro.metrics.netarrays import NetArrays
    from repro.netlist.flatten import FlatDesign
    from repro.placement.cluster import ClusteredNetlist
    from repro.placement.hpwl import HpwlReport
    from repro.placement.stdcell import CellPlacement, PlacerConfig
    from repro.routing.congestion import CongestionReport
    from repro.timing.delay import DelayModel
    from repro.timing.sta import TimingReport


class RefereeBackend:
    """One implementation of the referee kernels.

    ``name`` labels the implementation (the ``referee`` span's
    ``backend`` attribute); ``uses_net_arrays`` tells callers whether to
    compile (and pass) the shared
    :class:`~repro.metrics.netarrays.NetArrays`.  ``coords`` optionally
    hands the HPWL and congestion kernels one shared
    :func:`~repro.metrics.netarrays.locate_endpoints` result so a
    caller evaluating several metrics on the same placement (the
    referee) locates every endpoint once; implementations that do not
    consume net arrays ignore it.
    """

    name = "base"
    uses_net_arrays = False

    def stdcell_system(self, flat: "FlatDesign",
                       placement: "MacroPlacement",
                       port_positions: Dict[str, "Point"],
                       config: "PlacerConfig",
                       clustered: "ClusteredNetlist"):
        """``(laplacian, bx, by)`` of the quadratic clique system.

        The shared solve (conjugate gradients + diffusion) lives in
        :func:`repro.placement.stdcell.place_cells`; kernels only own
        the connectivity assembly, the profiled hot loop.
        """
        raise NotImplementedError

    def timing(self, flat: "FlatDesign", gseq: "Gseq",
               placement: "MacroPlacement", cells: "CellPlacement",
               port_positions: Dict[str, "Point"], clock_period: float,
               model: "DelayModel") -> "TimingReport":
        """Slack analysis of every sequential edge against the clock."""
        raise NotImplementedError

    def hpwl(self, flat: "FlatDesign", placement: "MacroPlacement",
             cells: "CellPlacement", port_positions: Dict[str, "Point"],
             arrays: Optional["NetArrays"] = None,
             coords=None) -> "HpwlReport":
        raise NotImplementedError

    def congestion(self, flat: "FlatDesign", placement: "MacroPlacement",
                   cells: "CellPlacement",
                   port_positions: Dict[str, "Point"], bins: int = 32,
                   arrays: Optional["NetArrays"] = None,
                   coords=None) -> "CongestionReport":
        raise NotImplementedError

    def affinity_distance(self, pairs: "AffinityPairs",
                          centers: Dict[int, Tuple[float, float]]) -> float:
        """Unscaled ``sum(a * manhattan)`` over the compiled pairs."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<RefereeBackend {self.name!r}>"


class AffinityPairs:
    """The distance kernel's compiled view of a cost model's pairs.

    ``block_pairs`` are ``(i, j, a)`` with both ends movable;
    ``terminal_pairs`` are ``(i, (tx, ty), a)`` with a fixed end.  Kept
    in the cost model's historical iteration order so sequential
    reduction matches the reference accumulator bit for bit.  NumPy
    column views are materialized lazily on first use.
    """

    __slots__ = ("block_pairs", "terminal_pairs", "_columns",
                 "_required")

    def __init__(self,
                 block_pairs: List[Tuple[int, int, float]],
                 terminal_pairs: List[Tuple[int, Tuple[float, float],
                                            float]]):
        self.block_pairs = block_pairs
        self.terminal_pairs = terminal_pairs
        self._columns = None
        self._required = None

    def __len__(self) -> int:
        return len(self.block_pairs) + len(self.terminal_pairs)

    def required_indices(self) -> Tuple[int, ...]:
        """Every block index the pairs reference (sorted, deduped).

        Kernels look these up in the caller's ``centers`` mapping, so a
        missing index raises ``KeyError`` on every backend alike.
        """
        if self._required is None:
            indices = {i for i, _j, _a in self.block_pairs}
            indices.update(j for _i, j, _a in self.block_pairs)
            indices.update(i for i, _pos, _a in self.terminal_pairs)
            self._required = tuple(sorted(indices))
        return self._required

    def columns(self):
        """``(bi, bj, ba, ti, tx, ty, ta)`` int64/float64 arrays."""
        if self._columns is None:
            import numpy as np

            bi = np.array([p[0] for p in self.block_pairs], dtype=np.int64)
            bj = np.array([p[1] for p in self.block_pairs], dtype=np.int64)
            ba = np.array([p[2] for p in self.block_pairs],
                          dtype=np.float64)
            ti = np.array([p[0] for p in self.terminal_pairs],
                          dtype=np.int64)
            tx = np.array([p[1][0] for p in self.terminal_pairs],
                          dtype=np.float64)
            ty = np.array([p[1][1] for p in self.terminal_pairs],
                          dtype=np.float64)
            ta = np.array([p[2] for p in self.terminal_pairs],
                          dtype=np.float64)
            self._columns = (bi, bj, ba, ti, tx, ty, ta)
        return self._columns


class PythonBackend(RefereeBackend):
    """The reference loops (the repo's original referee), kept as the
    equivalence oracle."""

    name = "python"
    uses_net_arrays = False

    def stdcell_system(self, flat, placement, port_positions, config,
                       clustered):
        from repro.placement.stdcell import _build_system
        return _build_system(clustered, flat, placement, port_positions,
                             config)

    def timing(self, flat, gseq, placement, cells, port_positions,
               clock_period, model):
        from repro.timing.sta import analyze_timing_reference
        return analyze_timing_reference(flat, gseq, placement, cells,
                                        port_positions,
                                        clock_period=clock_period,
                                        model=model)

    def hpwl(self, flat, placement, cells, port_positions, arrays=None,
             coords=None):
        from repro.placement.hpwl import hpwl_reference
        return hpwl_reference(flat, placement, cells, port_positions)

    def congestion(self, flat, placement, cells, port_positions,
                   bins=32, arrays=None, coords=None):
        from repro.routing.congestion import congestion_reference
        return congestion_reference(flat, placement, cells,
                                    port_positions, bins=bins)

    def affinity_distance(self, pairs, centers):
        total = 0.0
        for i, j, a in pairs.block_pairs:
            cxi, cyi = centers[i]
            cxj, cyj = centers[j]
            total += a * (abs(cxi - cxj) + abs(cyi - cyj))
        for i, (tx, ty), a in pairs.terminal_pairs:
            cxi, cyi = centers[i]
            total += a * (abs(cxi - tx) + abs(cyi - ty))
        return total

