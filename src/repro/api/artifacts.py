"""Typed records produced by a placement run.

:class:`RunArtifacts` replaces the mutable grab-bag of instance
attributes the original ``HiDaP`` class accumulated during a run.  The
HiDaP stages fill the record one by one; afterwards every intermediate
(graphs, curves, port positions) and the final placement are available
as plain typed fields, so tools, figures and tests can inspect a run
without reaching into placer internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.config import HiDaPConfig
from repro.core.result import MacroPlacement
from repro.geometry.rect import Point, Rect
from repro.netlist.core import Design
from repro.netlist.flatten import FlatDesign

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.hiergraph.gnet import Gnet
    from repro.hiergraph.gseq import Gseq
    from repro.hiergraph.hierarchy import HierTree
    from repro.shapecurve.curve import ShapeCurve


@dataclass
class RunArtifacts:
    """Everything one placement run reads and produces.

    Inputs (``design``/``flat``, ``die``, ``config``) are set before
    the stages run; each stage fills in the fields it owns.  Fields
    that are already populated are treated as caches and left alone,
    which is how prepared-design reuse avoids rebuilding ``flat`` /
    ``gnet`` / ``gseq`` for every consumer.
    """

    die: Rect
    config: HiDaPConfig = field(default_factory=HiDaPConfig)
    flow_name: str = "hidap"
    design: Optional[Design] = None

    # Stage products (in stage order).
    flat: Optional[FlatDesign] = None
    tree: Optional["HierTree"] = None
    gnet: Optional["Gnet"] = None
    gseq: Optional["Gseq"] = None
    curves: Optional[Dict[str, "ShapeCurve"]] = None
    port_positions: Optional[Dict[str, Point]] = None
    placement: Optional[MacroPlacement] = None

    # Bookkeeping.
    flipped_macros: int = 0
    legalizer_moves: int = 0
    #: Evaluation-work counters of the two annealing stages
    #: (shape-curves and floorplan), accumulated as plain ints:
    #: ``cost_evals``, ``cost_cache_hits``, ``layout_nodes_total``,
    #: ``layout_nodes_expanded``, ``subtree_hits``/``subtree_misses``
    #: (slice lookups that ended on a cached subtree vs. subtrees
    #: annotated — the same meaning in both stages),
    #: ``curve_compose_hits``/``curve_compose_misses`` (see
    #: :class:`repro.slicing.tree.EvalStats`).  The caches count into
    #: the stage's record directly.  Read them here after a run, or as
    #: the tracer counters of the same names under ``use_tracer``
    #: (both record the same sums).  Stage timings
    #: live in the stage spans, referee facts in the ``referee`` span;
    #: ``legalizer_moves`` is also the ``legalize_moves`` counter.
    eval_counters: Dict[str, int] = field(default_factory=dict)

    def require_placement(self) -> MacroPlacement:
        """The final placement, or a clear error if the run is partial."""
        if self.placement is None:
            raise RuntimeError(
                "pipeline has not produced a placement yet")
        return self.placement
