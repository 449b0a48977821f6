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
from typing import Any, Dict, MutableMapping, Optional, Union

from repro.core.config import Effort
from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement
from repro.gen.spec import GroundTruth
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.flatten import FlatDesign
from repro.obs import current_tracer, perf_seconds
from repro.placement.stdcell import PlacerConfig, place_cells
from repro.timing.sta import analyze_timing

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
    referee_backend: Optional[str] = None
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
    #: Referee observability: ``referee_backend`` plus per-metric
    #: ``referee_*_us`` wall-clock counters (see
    #: :func:`evaluate_placement`); empty on rows built by hand.
    eval_counters: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> str:
        return (f"{self.design:4s} {self.flow:8s} "
                f"WL={self.wl_meters:8.3f}m norm={self.wl_norm:5.3f} "
                f"GRC={self.grc_percent:6.2f}% WNS={self.wns_percent:+6.1f}% "
                f"TNS={self.tns:9.1f}  t={self.placer_seconds:6.1f}s")


def evaluate_placement(flat: FlatDesign, placement: MacroPlacement,
                       gseq=None, clock_period: Optional[float] = None,
                       placer_config: Optional[PlacerConfig] = None,
                       backend: Optional[str] = None,
                       counters: Optional[MutableMapping[str, Any]] = None
                       ) -> FlowMetrics:
    """The shared referee: cell placement + WL + congestion + timing.

    ``backend`` selects the referee backend by name (``None`` → the
    :mod:`repro.metrics` registry default, normally ``numpy``); every
    referee stage — the quadratic stdcell system, HPWL, congestion and
    the timing analysis — runs on the selected backend's kernels, and
    array backends pull the compiled per-design caches
    (:class:`~repro.metrics.netarrays.NetArrays`, the clustered
    netlist's :class:`~repro.metrics.stdcell_kernel.StdcellArrays`, the
    sequential graph's
    :class:`~repro.metrics.timing_kernel.TimingArrays`), so repeated
    evaluations share one compile.  When ``counters`` is given, the
    backend name and per-metric wall-clock (``referee_stdcell_us``,
    ``referee_hpwl_us``, ``referee_congestion_us``,
    ``referee_timing_us``, integer microseconds) are recorded into it;
    the same record lands on the returned row's ``eval_counters``.
    """
    from repro.metrics import (
        get_backend,
        locate_endpoints,
        net_arrays_for,
        traced_backend,
    )

    die = placement.die
    port_positions = assign_port_positions(flat.design, die)
    if gseq is None:
        gseq = build_gseq(build_gnet(flat), flat)

    tracer = current_tracer()
    resolved = traced_backend(get_backend(backend), tracer)
    arrays = net_arrays_for(flat) if resolved.uses_net_arrays else None
    counters = counters if counters is not None else {}
    counters["referee_backend"] = resolved.name

    def timed(key, fn):
        # The obs clock feeds the referee_*_us observability counters
        # only — it never reaches a metric value or an RNG stream.
        start = perf_seconds()
        result = fn()
        counters[key] = counters.get(key, 0) + int(
            1e6 * (perf_seconds() - start))
        return result

    with tracer.span("referee", design=flat.design.name,
                     flow=placement.flow_name, backend=resolved.name):
        cells = timed("referee_stdcell_us",
                      lambda: place_cells(flat, placement, port_positions,
                                          config=placer_config,
                                          backend=resolved))
        # Locate every endpoint once; both array kernels share the
        # result.
        coords = None
        if arrays is not None:
            with tracer.span("referee.locate"):
                coords = timed(
                    "referee_locate_us",
                    lambda: locate_endpoints(arrays, placement, cells,
                                             port_positions))
        wl = timed("referee_hpwl_us",
                   lambda: resolved.hpwl(flat, placement, cells,
                                         port_positions, arrays=arrays,
                                         coords=coords))
        congestion = timed("referee_congestion_us",
                           lambda: resolved.congestion(
                               flat, placement, cells, port_positions,
                               arrays=arrays, coords=coords))
        timing = timed("referee_timing_us",
                       lambda: analyze_timing(flat, gseq, placement,
                                              cells, port_positions,
                                              clock_period=clock_period,
                                              backend=resolved))
    tracer.metrics.absorb(counters)
    return FlowMetrics(
        design=flat.design.name,
        flow=placement.flow_name,
        wl_meters=wl.meters,
        grc_percent=congestion.grc_percent,
        wns_percent=timing.wns_percent,
        tns=timing.tns,
        placer_seconds=placement.runtime_seconds,
        macro_overlap=placement.macro_overlap_area(),
        eval_counters=dict(counters))


def run_flow(flat: FlatDesign, truth: Optional[GroundTruth],
             flow: str, die_w: float, die_h: float,
             options: Optional[RunOptions] = None,
             clock_period: Optional[float] = None,
             gseq=None) -> FlowMetrics:
    """Place with ``flow`` and evaluate with the shared referee.

    A thin shim over the flow registry (:mod:`repro.api.registry`):
    ``flow`` is any registered name or parameterized spec —
    ``indeda``, ``handfp``, ``hidap`` (λ=0.5), ``hidap:lam=<λ>``,
    ``hidap-best3`` (the paper's best-WL-of-three protocol), a flow
    you registered yourself... — with the legacy ``hidap-l<λ>``
    spelling still accepted.

    ``options`` carries the run knobs (:class:`RunOptions`: seed,
    effort, referee backend, trace — see the module docstring for the
    one trace semantics).
    """
    from repro.api import get_flow
    from repro.api.prepared import PreparedDesign

    opts = options if options is not None else RunOptions()
    prepared = PreparedDesign.from_flat(flat, die_w=die_w, die_h=die_h,
                                        truth=truth, gseq=gseq)
    placer = get_flow(flow, seed=opts.seed, effort=opts.effort,
                      referee_backend=opts.referee_backend)
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
