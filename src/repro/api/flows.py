"""Built-in flows behind the registry.

Each class wraps one of the repo's placement flows in the
:class:`~repro.api.registry.Placer` protocol: ``place`` produces a
:class:`~repro.core.result.MacroPlacement`, ``evaluate`` additionally
runs the shared referee.  All of them pull ``flat``/``gnet``/``gseq``
from the :class:`~repro.api.prepared.PreparedDesign` cache instead of
rebuilding them.

Registered names: ``hidap``, ``hidap-best3``, ``indeda``, ``handfp``,
``handfp-strip``.  Parameterized variants are spelled as flow specs,
e.g. ``hidap:lam=0.8`` or ``hidap:lam=0.2,latency_k=2``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.api.artifacts import RunArtifacts
from repro.api.prepared import PreparedDesign
from repro.api.registry import FlowError, register_flow
from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.core.result import MacroPlacement
from repro.api.run import HIDAP_LAMBDAS, FlowMetrics, evaluate_placement
from repro.obs import current_tracer
from repro.timing.sta import default_clock_period


def _coerce_effort(effort) -> Effort:
    return effort if isinstance(effort, Effort) else Effort(effort)


def _place_hidap(prepared: PreparedDesign, config: HiDaPConfig,
                 flow_name: str, curves=None
                 ) -> Tuple[MacroPlacement, RunArtifacts]:
    """One HiDaP run over ``prepared``'s cached graphs and tree.

    Returns the placement and the run's artifacts; ``curves`` (an
    earlier run's) lets the shape-curves stage skip its search.
    """
    placer = HiDaP(config)
    placement = placer.place(prepared.flat, prepared.die_w, prepared.die_h,
                             flow_name=flow_name, gnet=prepared.gnet,
                             gseq=prepared.gseq, tree=prepared.tree,
                             curves=curves)
    return placement, placer.artifacts


class BaseFlow:
    """Shared plumbing: referee invocation over cached artifacts.

    Every flow is scored by the one shared referee,
    :func:`~repro.api.run.evaluate_placement`; under a tracer its step
    timings are its ``referee.*`` spans.
    """

    name = "base"

    def __init__(self, seed: int = 1, effort=Effort.NORMAL):
        self.seed = int(seed)
        self.effort = _coerce_effort(effort)
        #: RunArtifacts of the flow's last placement run, when the
        #: underlying placer exposes them (HiDaP flows do).
        self.artifacts = None

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        raise NotImplementedError

    def _referee(self, prepared: PreparedDesign,
                 placement: MacroPlacement,
                 clock_period: float) -> FlowMetrics:
        """Score ``placement`` with the shared referee."""
        return evaluate_placement(prepared.flat, placement,
                                  prepared.gseq, clock_period)

    def evaluate(self, prepared: PreparedDesign,
                 clock_period: Optional[float] = None) -> FlowMetrics:
        if clock_period is None:
            clock_period = default_clock_period(prepared.die_w,
                                                prepared.die_h)
        placement = self.place(prepared)
        return self._referee(prepared, placement, clock_period)


class HiDaPFlow(BaseFlow):
    """The paper's placer at a single λ (``hidap``, ``hidap:lam=...``)."""

    name = "hidap"
    #: Label stamped on placements/metrics (the paper reports the
    #: best-of-three protocol simply as "hidap").
    flow_label = "hidap"

    def __init__(self, seed: int = 1, effort=Effort.NORMAL,
                 lam: float = 0.5, **config_kwargs):
        super().__init__(seed, effort)
        self.config = HiDaPConfig(seed=self.seed, lam=lam,
                                  effort=self.effort, **config_kwargs)

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        placement, self.artifacts = _place_hidap(prepared, self.config,
                                                 self.flow_label)
        return placement

    def evaluate(self, prepared: PreparedDesign,
                 clock_period: Optional[float] = None) -> FlowMetrics:
        metrics = super().evaluate(prepared, clock_period)
        metrics.lam = self.config.lam
        return metrics


class HiDaPBest3Flow(HiDaPFlow):
    """The paper's protocol: best referee WL over λ ∈ {0.2, 0.5, 0.8}."""

    name = "hidap-best3"

    def __init__(self, seed: int = 1, effort=Effort.NORMAL,
                 lambdas: Tuple[float, ...] = HIDAP_LAMBDAS,
                 lam: Optional[float] = None, **config_kwargs):
        # ``lam=<λ>`` (the spec syntax shared with plain hidap)
        # restricts the sweep to a single λ.
        if lam is not None:
            lambdas = (float(lam),)
        if isinstance(lambdas, (int, float)):
            lambdas = (float(lambdas),)
        self.lambdas = tuple(lambdas)
        super().__init__(seed, effort, lam=self.lambdas[0],
                         **config_kwargs)

    def _sweep(self, prepared: PreparedDesign, clock_period: float
               ) -> Tuple[FlowMetrics, MacroPlacement]:
        """Run every λ; keep the best row, placement and artifacts.

        Shape curves do not depend on λ (``shapegen_config()`` never
        reads it), so the first run's curves serve every later one.
        """
        best = None
        curves = None
        for lam in self.lambdas:
            # Carry every configured knob (flipping, latency_k, ...)
            # into the sweep; only λ varies.
            config = dataclasses.replace(self.config, lam=lam)
            placement, self.artifacts = _place_hidap(
                prepared, config, self.flow_label, curves)
            curves = self.artifacts.curves
            metrics = self._referee(prepared, placement, clock_period)
            metrics.lam = lam
            if best is None or metrics.wl_meters < best[0].wl_meters:
                best = (metrics, placement, self.artifacts)
        metrics, placement, self.artifacts = best
        return metrics, placement

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        clock = default_clock_period(prepared.die_w, prepared.die_h)
        return self._sweep(prepared, clock)[1]

    def evaluate(self, prepared: PreparedDesign,
                 clock_period: Optional[float] = None) -> FlowMetrics:
        if clock_period is None:
            clock_period = default_clock_period(prepared.die_w,
                                                prepared.die_h)
        return self._sweep(prepared, clock_period)[0]


class IndEDAFlow(BaseFlow):
    """The commercial-floorplanner stand-in."""

    name = "indeda"

    def __init__(self, seed: int = 1, effort=Effort.NORMAL,
                 refinement_passes: int = 5):
        super().__init__(seed, effort)
        self.refinement_passes = int(refinement_passes)

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        from repro.baselines.indeda import place_indeda
        # Build the cached graphs first: their prepare.* spans are not
        # placement time.
        flat, gnet, gseq = prepared.flat, prepared.gnet, prepared.gseq
        with current_tracer().span("place", design=prepared.name,
                                   flow=self.name):
            return place_indeda(flat, prepared.die_w, prepared.die_h,
                                refinement_passes=self.refinement_passes,
                                gnet=gnet, gseq=gseq)


class HandFPStripFlow(BaseFlow):
    """The expert strip floorplan alone (``handfp-strip``)."""

    name = "handfp-strip"

    def __init__(self, seed: int = 1, effort=Effort.NORMAL,
                 refinement_passes: int = 8):
        super().__init__(seed, effort)
        self.refinement_passes = int(refinement_passes)

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        from repro.baselines.handfp import place_handfp
        if prepared.truth is None:
            raise FlowError(
                "handfp requires ground truth (a generated design)")
        flat, gnet, gseq, tree = (prepared.flat, prepared.gnet,
                                  prepared.gseq, prepared.tree)
        with current_tracer().span("place", design=prepared.name,
                                   flow=self.name):
            return place_handfp(flat, prepared.truth, prepared.die_w,
                                prepared.die_h,
                                refinement_passes=self.refinement_passes,
                                gnet=gnet, gseq=gseq, tree=tree)


class HandFPFlow(HandFPStripFlow):
    """The full expert oracle (``handfp``).

    The experts iterated for weeks with every tool available: besides
    the strip floorplan, the oracle keeps independent high-effort tool
    runs if the referee scores them better.  Seeds differ from the
    hidap flow's, so handFP is a genuinely independent contender.
    """

    name = "handfp"

    def evaluate(self, prepared: PreparedDesign,
                 clock_period: Optional[float] = None) -> FlowMetrics:
        if clock_period is None:
            clock_period = default_clock_period(prepared.die_w,
                                                prepared.die_h)
        best = super().evaluate(prepared, clock_period)
        expert_effort = (Effort.HIGH if self.effort is Effort.NORMAL
                         else Effort.NORMAL)
        total_time = best.placer_seconds
        for expert_seed, lam in ((self.seed + 101, 0.5),
                                 (self.seed + 202, 0.2)):
            config = HiDaPConfig(seed=expert_seed, lam=lam,
                                 effort=expert_effort)
            candidate = _place_hidap(prepared, config, "handfp")[0]
            metrics = self._referee(prepared, candidate, clock_period)
            total_time += metrics.placer_seconds
            if metrics.wl_meters < best.wl_meters:
                best = metrics
        best.flow = "handfp"
        best.placer_seconds = total_time
        return best


#: Names claimed by :func:`register_builtin_flows`; registry entries
#: beyond these are third-party and must be replayed into suite
#: worker processes (see :mod:`repro.api.suite`).
BUILTIN_FLOW_NAMES = ("hidap", "hidap-best3", "indeda", "handfp",
                      "handfp-strip")


def register_builtin_flows() -> None:
    """Idempotently (re)register the repo's own flows."""
    for cls, description in (
            (HiDaPFlow,
             "the paper's placer at one λ (params: lam, seed, effort, "
             "any HiDaPConfig field)"),
            (HiDaPBest3Flow,
             "best referee WL over λ ∈ {0.2, 0.5, 0.8} (the paper's "
             "reporting protocol)"),
            (IndEDAFlow,
             "commercial-floorplanner stand-in: flat connectivity, "
             "perimeter packing"),
            (HandFPFlow,
             "expert-oracle stand-in: ground-truth strips plus "
             "high-effort tool contenders"),
            (HandFPStripFlow,
             "the expert strip floorplan alone, no tool contenders")):
        register_flow(cls.name, cls, description=description,
                      overwrite=True)


register_builtin_flows()
