"""The referee kernel interface and its python oracle.

The referee's four evaluation kernels — the quadratic stdcell system
assembly, HPWL, congestion and the levelized timing analysis — sit
behind one small interface,
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

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import MacroPlacement
    from repro.geometry.rect import Point
    from repro.hiergraph.gseq import Gseq
    from repro.metrics.netarrays import NetArrays
    from repro.netlist.flatten import FlatDesign
    from repro.placement.cluster import ClusteredNetlist
    from repro.placement.hpwl import HpwlReport
    from repro.placement.stdcell import CellPlacement
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

    def __repr__(self) -> str:
        return f"<RefereeBackend {self.name!r}>"


class PythonBackend(RefereeBackend):
    """The reference loops (the repo's original referee), kept as the
    equivalence oracle."""

    name = "python"
    uses_net_arrays = False

    def stdcell_system(self, flat, placement, port_positions, clustered):
        from repro.placement.stdcell import _build_system
        return _build_system(clustered, flat, placement, port_positions)

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
