"""Single-run entry point: ``run_flow``, the shared referee, RunOptions.

:class:`RunOptions` is the one knob record shared by every placement
entry point — ``run_flow``, ``run_suite`` and
:class:`repro.service.PlacementService` all accept the same options
object, so a configuration travels unchanged from a one-off run to a
suite to a service job.

Trace semantics (shared by all three entry points)
--------------------------------------------------
``trace: bool | str | Path | None`` has exactly one meaning everywhere:

* ``None`` / ``False`` — no span recording (the default);
* ``True`` — record :mod:`repro.obs` spans and attach the payload list
  to the result (``FlowMetrics.trace`` / ``SuiteResult.trace``);
* a ``str`` or :class:`~pathlib.Path` — record spans *and* write a
  Chrome trace-event file at that path (viewable in Perfetto /
  ``chrome://tracing``), in addition to attaching the payloads.

Tracing never changes placements, rows or RNG streams (asserted in
``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union, TYPE_CHECKING

from repro.core.config import Effort
from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement
from repro.gen.spec import GroundTruth
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.flatten import FlatDesign
from repro.obs import current_tracer
from repro.placement.stdcell import place_cells
from repro.timing.sta import analyze_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics import RefereeBackend

#: The λ values the paper sweeps for HiDaP ("best WL of three").
HIDAP_LAMBDAS = (0.2, 0.5, 0.8)

#: The one documented type of the ``trace`` knob (see module docstring).
TraceSpec = Union[bool, str, Path, None]


@dataclass(frozen=True)
class RunOptions:
    """Per-run knobs shared by every placement entry point.

    ``run_flow``, ``run_suite`` and
    :class:`repro.service.PlacementService` all take this one frozen
    record, so client code configures a run once regardless of how it
    is executed.
    """

    seed: int = 1
    effort: Effort = Effort.NORMAL
    trace: TraceSpec = None

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.effort, Effort):
            object.__setattr__(self, "effort", Effort(self.effort))

    @property
    def tracing(self) -> bool:
        """Whether span recording is on (any non-falsy ``trace``)."""
        return bool(self.trace)

    @property
    def trace_path(self) -> Optional[Path]:
        """The Chrome-trace output path, if ``trace`` named one."""
        if isinstance(self.trace, (str, Path)):
            return Path(self.trace)
        return None


@dataclass
class FlowMetrics:
    """One row of Table III."""

    design: str
    flow: str
    wl_meters: float
    grc_percent: float
    wns_percent: float
    tns: float
    placer_seconds: float
    wl_norm: float = 0.0          # vs handFP; filled by the suite runner
    macro_overlap: float = 0.0
    lam: Optional[float] = None   # λ actually used (HiDaP flows)
    #: Tracer payloads of a traced :func:`run_flow`; ``None`` otherwise.
    trace: Optional[List[Dict[str, Any]]] = field(default=None,
                                                  compare=False,
                                                  repr=False)

    def row(self) -> str:
        return (f"{self.design:4s} {self.flow:8s} "
                f"WL={self.wl_meters:8.3f}m norm={self.wl_norm:5.3f} "
                f"GRC={self.grc_percent:6.2f}% WNS={self.wns_percent:+6.1f}% "
                f"TNS={self.tns:9.1f}  t={self.placer_seconds:6.1f}s")


def evaluate_placement(flat: FlatDesign, placement: MacroPlacement,
                       gseq=None, clock_period: Optional[float] = None,
                       backend: Optional["RefereeBackend"] = None
                       ) -> FlowMetrics:
    """The shared referee: cell placement + WL + congestion + timing.

    Every referee stage — the quadratic stdcell system, HPWL,
    congestion and the timing analysis — runs on the NumPy kernels
    (:class:`~repro.metrics.NumpyBackend`) over the compiled
    per-design caches (:class:`~repro.metrics.netarrays.NetArrays`, the
    clustered netlist's
    :class:`~repro.metrics.stdcell_kernel.StdcellArrays`, the
    sequential graph's
    :class:`~repro.metrics.timing_kernel.TimingArrays`), so repeated
    evaluations share one compile.  ``backend`` lets tests substitute
    another :class:`~repro.metrics.RefereeBackend` instance, e.g. the
    python oracle.

    Under an active tracer the call records one ``referee`` span (with
    ``design``, ``flow`` and ``backend`` attributes) holding one span
    per step: ``referee.stdcell``, ``referee.locate`` (array kernels
    only), ``referee.hpwl``, ``referee.congestion`` and
    ``referee.timing``.
    """
    from repro.metrics import NumpyBackend, locate_endpoints, net_arrays_for

    die = placement.die
    port_positions = assign_port_positions(flat.design, die)
    if gseq is None:
        gseq = build_gseq(build_gnet(flat), flat)

    tracer = current_tracer()
    kernels = backend or NumpyBackend()
    arrays = net_arrays_for(flat) if kernels.uses_net_arrays else None

    with tracer.span("referee", design=flat.design.name,
                     flow=placement.flow_name, backend=kernels.name):
        with tracer.span("referee.stdcell"):
            cells = place_cells(flat, placement, port_positions,
                                backend=kernels)
        # Locate every endpoint once; both array kernels share the
        # result.
        coords = None
        if arrays is not None:
            with tracer.span("referee.locate"):
                coords = locate_endpoints(arrays, placement, cells,
                                          port_positions)
        with tracer.span("referee.hpwl"):
            wl = kernels.hpwl(flat, placement, cells, port_positions,
                              arrays=arrays, coords=coords)
        with tracer.span("referee.congestion"):
            congestion = kernels.congestion(flat, placement, cells,
                                            port_positions,
                                            arrays=arrays, coords=coords)
        with tracer.span("referee.timing"):
            timing = analyze_timing(flat, gseq, placement, cells,
                                    port_positions,
                                    clock_period=clock_period,
                                    backend=kernels)
    return FlowMetrics(
        design=flat.design.name,
        flow=placement.flow_name,
        wl_meters=wl.meters,
        grc_percent=congestion.grc_percent,
        wns_percent=timing.wns_percent,
        tns=timing.tns,
        placer_seconds=placement.runtime_seconds,
        macro_overlap=placement.macro_overlap_area())


def run_flow(flat: FlatDesign, truth: Optional[GroundTruth],
             flow: str, die_w: float, die_h: float,
             options: Optional[RunOptions] = None,
             clock_period: Optional[float] = None) -> FlowMetrics:
    """Place with ``flow`` and evaluate with the shared referee.

    A thin shim over the flow registry (:mod:`repro.api.registry`):
    ``flow`` is any registered name or parameterized spec —
    ``indeda``, ``handfp``, ``hidap`` (λ=0.5), ``hidap:lam=<λ>``,
    ``hidap-best3`` (the paper's best-WL-of-three protocol), a flow
    you registered yourself...

    ``options`` carries the run knobs (:class:`RunOptions`: seed,
    effort, trace — see the module docstring for the one trace
    semantics).
    """
    from repro.api import get_flow
    from repro.api.prepared import PreparedDesign

    opts = options if options is not None else RunOptions()
    prepared = PreparedDesign.from_flat(flat, die_w=die_w, die_h=die_h,
                                        truth=truth)
    placer = get_flow(flow, seed=opts.seed, effort=opts.effort)
    if not opts.tracing:
        return placer.evaluate(prepared, clock_period=clock_period)

    from repro.obs import Tracer, use_tracer, write_chrome_trace

    tracer = Tracer("run_flow")
    with use_tracer(tracer):
        with tracer.span("flow.place", design=flat.design.name,
                         flow=flow):
            metrics = placer.evaluate(prepared,
                                      clock_period=clock_period)
    payloads = [tracer.payload()]
    if opts.trace_path is not None:
        write_chrome_trace(opts.trace_path, payloads)
    metrics.trace = payloads
    return metrics
