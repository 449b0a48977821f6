"""The staged placement pipeline.

A :class:`Pipeline` is an ordered list of :class:`Stage` objects, each
a named function over a shared :class:`RunArtifacts` record.  Observers
receive ``on_stage_start`` / ``on_stage_end`` callbacks, which is how
progress reporting, tracing and per-stage profiling attach to a run
without the placer knowing about them.

:func:`build_hidap_pipeline` assembles the paper's Algorithm 1 as six
stages::

    flatten -> graphs -> shape-curves -> floorplan -> flip -> legalize

Stages skip work whose product is already present on the artifacts
(e.g. a cached ``flat``/``gnet``/``gseq`` injected from a
:class:`~repro.api.prepared.PreparedDesign`, or the shape curves of an
earlier run over the same tree and shape-search configuration).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.api.artifacts import RunArtifacts
from repro.core.flipping import flip_macros
from repro.core.legalize import legalize_macros
from repro.core.ports import assign_port_positions
from repro.core.recursive import RecursiveFloorplanner
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.flatten import flatten
from repro.obs import current_tracer, perf_seconds
from repro.shapecurve.curve import ShapeCurve
from repro.shapecurve.generation import generate_shape_curves
from repro.slicing.tree import EvalStats

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Stage:
    """One named step of a pipeline; ``run`` mutates the artifacts."""

    name: str
    run: Callable[[RunArtifacts], None]

    def __repr__(self) -> str:
        return f"Stage({self.name!r})"


class PipelineObserver:
    """Hook base class; subclass and override what you need.

    Observer exceptions never abort a run: :meth:`Pipeline.run` logs a
    warning (and records an ``observer.error`` trace event) and keeps
    placing.
    """

    def on_stage_start(self, stage: Stage,
                       artifacts: RunArtifacts) -> None:
        """Called before a stage runs."""

    def on_stage_end(self, stage: Stage, artifacts: RunArtifacts,
                     seconds: float) -> None:
        """Called after a stage completed, with its wall-clock time."""


class Pipeline:
    """An ordered, observable sequence of stages."""

    def __init__(self, stages: Sequence[Stage],
                 observers: Sequence[PipelineObserver] = ()):
        self.stages: Tuple[Stage, ...] = tuple(stages)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        self.observers: List[PipelineObserver] = list(observers)

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def add_observer(self, observer: PipelineObserver) -> "Pipeline":
        self.observers.append(observer)
        return self

    def _notify(self, callback_name: str, *args) -> None:
        """Invoke one observer hook on every observer, exception-safe.

        A broken observer must never abort a placement: failures are
        logged, recorded as zero-length ``observer.error`` spans, and
        swallowed.
        """
        tracer = current_tracer()
        for observer in self.observers:
            try:
                getattr(observer, callback_name)(*args)
            except Exception as exc:
                logger.warning("pipeline observer %r failed in %s: %s",
                               observer, callback_name, exc)
                with tracer.span("observer.error",
                                 observer=type(observer).__name__,
                                 callback=callback_name, error=repr(exc)):
                    pass

    def run(self, artifacts: RunArtifacts) -> RunArtifacts:
        """Run every stage in order over ``artifacts``."""
        tracer = current_tracer()
        for stage in self.stages:
            self._notify("on_stage_start", stage, artifacts)
            with tracer.span(stage.name):
                start = perf_seconds()
                stage.run(artifacts)
                seconds = perf_seconds() - start
            self._notify("on_stage_end", stage, artifacts, seconds)
        return artifacts


# -- HiDaP stage implementations ------------------------------------------


def _stage_flatten(artifacts: RunArtifacts) -> None:
    if artifacts.flat is None:
        if artifacts.design is None:
            raise ValueError("artifacts carry neither a design nor a "
                             "flattened design")
        artifacts.flat = flatten(artifacts.design)


def _stage_graphs(artifacts: RunArtifacts) -> None:
    flat = artifacts.flat
    if artifacts.tree is None:
        artifacts.tree = build_hierarchy(flat)
    if artifacts.gnet is None:
        artifacts.gnet = build_gnet(flat)
    if artifacts.gseq is None:
        artifacts.gseq = build_gseq(artifacts.gnet, flat,
                                    min_bits=artifacts.config.min_bits)


def _merge_eval_counters(artifacts: RunArtifacts, stats) -> None:
    """Add a stage's :class:`EvalStats` to the run and to the trace."""
    metrics = current_tracer().metrics
    for name, value in stats.as_dict().items():
        artifacts.eval_counters[name] = (
            artifacts.eval_counters.get(name, 0) + value)
        metrics.counter(name, value)


def _stage_shape_curves(artifacts: RunArtifacts) -> None:
    if artifacts.curves is not None:
        return
    flat = artifacts.flat
    config = artifacts.config

    def own_macro_curves(node):
        return [ShapeCurve.for_rect(flat.cells[m].ctype.width,
                                    flat.cells[m].ctype.height)
                for m in node.own_macros]

    stats = EvalStats()
    by_node = generate_shape_curves(
        artifacts.tree.root,
        children_of=lambda n: n.children,
        own_macro_curves_of=own_macro_curves,
        config=config.shapegen_config(),
        stats=stats)
    artifacts.curves = {node.path: curve
                        for node, curve in by_node.items()}
    _merge_eval_counters(artifacts, stats)


def _stage_floorplan(artifacts: RunArtifacts) -> None:
    artifacts.port_positions = assign_port_positions(
        artifacts.flat.design, artifacts.die)
    floorplanner = RecursiveFloorplanner(
        flat=artifacts.flat, gnet=artifacts.gnet, gseq=artifacts.gseq,
        tree=artifacts.tree, curves=artifacts.curves,
        config=artifacts.config,
        port_positions=artifacts.port_positions)
    artifacts.placement = floorplanner.run(artifacts.die,
                                           flow_name=artifacts.flow_name)
    _merge_eval_counters(artifacts, floorplanner.stats)


def _stage_flip(artifacts: RunArtifacts) -> None:
    if artifacts.config.flipping:
        artifacts.flipped_macros = flip_macros(
            artifacts.flat, artifacts.require_placement(),
            artifacts.port_positions)


def _stage_legalize(artifacts: RunArtifacts) -> None:
    # Safety net: only moves macros that overlap or protrude from the
    # die (budgeting keeps blocks disjoint, but rare layouts violate
    # this).  config.legalize=False reproduces the raw placement.
    if artifacts.config.legalize:
        artifacts.legalizer_moves = legalize_macros(
            artifacts.require_placement())
        current_tracer().metrics.counter("legalize_moves",
                                         artifacts.legalizer_moves)


#: The canonical stage order of the HiDaP flow.
HIDAP_STAGES: Tuple[str, ...] = ("flatten", "graphs", "shape-curves",
                                 "floorplan", "flip", "legalize")


def build_hidap_pipeline(observers: Sequence[PipelineObserver] = ()
                         ) -> Pipeline:
    """Algorithm 1 as a staged pipeline.

    Stages read their configuration from the
    :class:`~repro.api.artifacts.RunArtifacts` record they run over.
    """
    return Pipeline([
        Stage("flatten", _stage_flatten),
        Stage("graphs", _stage_graphs),
        Stage("shape-curves", _stage_shape_curves),
        Stage("floorplan", _stage_floorplan),
        Stage("flip", _stage_flip),
        Stage("legalize", _stage_legalize),
    ], observers=observers)
