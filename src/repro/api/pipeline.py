"""The six stages of the HiDaP flow (paper Algorithm 1).

:data:`HIDAP_STAGE_TABLE` lists them once, as ``(name, function)``
pairs over a shared :class:`RunArtifacts` record::

    flatten -> graphs -> shape-curves -> floorplan -> flip -> legalize

:meth:`repro.core.hidap.HiDaP.place` runs them in that order, each
under a tracer span of its name, so a run is watched through the one
``repro.obs`` path: stage timings are those spans, and the annealing
stages' evaluation counters go to ``artifacts.eval_counters`` and to
the tracer's counters.

Stages skip work whose product is already present on the artifacts
(e.g. a cached ``flat``/``gnet``/``gseq`` injected from a
:class:`~repro.api.prepared.PreparedDesign`, or the shape curves of an
earlier run over the same tree and shape-search configuration).
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.api.artifacts import RunArtifacts
from repro.core.flipping import flip_macros
from repro.core.legalize import legalize_macros
from repro.core.ports import assign_port_positions
from repro.core.recursive import RecursiveFloorplanner
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.flatten import flatten
from repro.obs import current_tracer
from repro.shapecurve.curve import ShapeCurve
from repro.shapecurve.generation import generate_shape_curves
from repro.slicing.tree import EvalStats


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
        artifacts.gseq = build_gseq(artifacts.gnet, flat)


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


#: Algorithm 1 as ``(span name, stage function)`` pairs, in run order.
#: Each stage reads its configuration from the
#: :class:`~repro.api.artifacts.RunArtifacts` record it runs over.
HIDAP_STAGE_TABLE: Tuple[Tuple[str, Callable[[RunArtifacts], None]], ...] = (
    ("flatten", _stage_flatten),
    ("graphs", _stage_graphs),
    ("shape-curves", _stage_shape_curves),
    ("floorplan", _stage_floorplan),
    ("flip", _stage_flip),
    ("legalize", _stage_legalize),
)

#: The canonical stage order of the HiDaP flow.
HIDAP_STAGES: Tuple[str, ...] = tuple(name for name, _run
                                      in HIDAP_STAGE_TABLE)
